#pragma once

/// \file instance_gen.hpp
/// Synthetic clock-routing instances standing in for the r1-r5 benchmarks.
///
/// The original r1-r5 instances (Tsay; used by the BST paper and by this
/// paper's experiments) are not redistributable, so we synthesise instances
/// with the same sink counts (267 / 598 / 862 / 1903 / 3101), a
/// 100 000 x 100 000-unit die (10 mm at 0.1 um/unit), sink loads of
/// 5-50 fF and a mixture of uniform background sinks and local clusters —
/// the spatial character that makes greedy merging non-trivial.  All
/// randomness is seeded, so every bench table (DESIGN.md §9) is
/// reproducible bit-for-bit.

#include "gen/rng.hpp"
#include "topo/instance.hpp"

#include <array>
#include <string>

namespace astclk::gen {

/// Parameters of a synthetic instance.
struct instance_spec {
    std::string name;
    int num_sinks = 0;
    double die = 100000.0;        ///< square die side, units
    double cap_min = 5e-15;       ///< sink load range, farads
    double cap_max = 50e-15;
    double cluster_fraction = 0.5;  ///< share of sinks placed in clusters
    int num_clusters = 8;
    double cluster_radius = 8000.0;  ///< cluster half-extent, units
    std::uint64_t seed = 1;
};

/// The five paper benchmarks (sink counts from Tables I/II).
[[nodiscard]] std::array<instance_spec, 5> paper_suite();

/// Look up a paper benchmark by name ("r1".."r5"); throws on unknown names.
[[nodiscard]] instance_spec paper_spec(const std::string& name);

/// The large-instance family ("l1".."l3", 10k/20k/50k sinks): an order of
/// magnitude past r5, with the denser clustering of real register banks
/// (70% of sinks in tight 3000–3500-unit clusters).  The regime the
/// sharded reduction targets — a monolithic uniform grid sized for the
/// whole die drowns in the dense cells, while per-shard grids stay local.
[[nodiscard]] std::array<instance_spec, 3> large_suite();

/// Look up a large benchmark by name ("l1".."l3"); throws on unknown names.
[[nodiscard]] instance_spec large_spec(const std::string& name);

/// Generate sinks (all in group 0; apply a grouping afterwards) with the
/// source at the die centre.
[[nodiscard]] topo::instance generate(const instance_spec& spec);

}  // namespace astclk::gen
