// I/O tests: bit-exact instance round-trips, parse diagnostics, SVG, JSON
// and table smoke checks.

#include <algorithm>

#include "core/router.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"
#include "io/instance_io.hpp"
#include "io/svg.hpp"
#include "io/table.hpp"
#include "io/tree_json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace astclk::io {
namespace {

TEST(InstanceIo, RoundTripIsBitExact) {
    auto inst = gen::generate(gen::paper_spec("r1"));
    gen::apply_intermingled_groups(inst, 5, 7);
    std::stringstream ss;
    write_instance(ss, inst);
    const auto back = read_instance(ss);
    EXPECT_EQ(back.name, inst.name);
    EXPECT_EQ(back.num_groups, inst.num_groups);
    EXPECT_EQ(back.die_width, inst.die_width);
    EXPECT_EQ(back.source.x, inst.source.x);
    ASSERT_EQ(back.sinks.size(), inst.sinks.size());
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        EXPECT_EQ(back.sinks[i], inst.sinks[i]);  // exact doubles
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
    std::stringstream ss;
    ss << "astclk-instance v1\n# a comment\n\nname t\ndie 10 10\n"
       << "source 5 5\ngroups 1\nsinks 2\n"
       << "1 1 1e-15 0  # trailing comment\n2 2 1e-15 0\n";
    const auto inst = read_instance(ss);
    EXPECT_EQ(inst.size(), 2u);
}

TEST(InstanceIo, RejectsMissingHeader) {
    std::stringstream ss("name x\n");
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

TEST(InstanceIo, RejectsTruncatedSinkList) {
    std::stringstream ss;
    ss << "astclk-instance v1\nname t\ndie 10 10\nsource 5 5\ngroups 1\n"
       << "sinks 3\n1 1 1e-15 0\n";
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

TEST(InstanceIo, RejectsInvalidInstance) {
    std::stringstream ss;
    ss << "astclk-instance v1\nname t\ndie 10 10\nsource 5 5\ngroups 2\n"
       << "sinks 1\n1 1 1e-15 0\n";  // group 1 empty
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

TEST(InstanceIo, RejectsUnknownHeaderKey) {
    std::stringstream ss("astclk-instance v1\nfrobnicate 3\n");
    EXPECT_THROW(read_instance(ss), std::runtime_error);
}

/// Parse `text` and return the parse_error message; any other outcome —
/// success, or an exception that is not std::runtime_error (bad_alloc,
/// length_error) — fails the calling test.
std::string parse_failure(const std::string& text) {
    std::stringstream ss(text);
    try {
        (void)read_instance(ss);
    } catch (const std::runtime_error& e) {
        return e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "non-parse exception: " << e.what();
        return {};
    }
    ADD_FAILURE() << "hostile instance was accepted";
    return {};
}

constexpr const char* khostile_header =
    "astclk-instance v1\nname t\ndie 100 100\nsource 50 50\ngroups 1\n";

TEST(InstanceIo, RejectsNegativeOrMalformedSinkCount) {
    std::string msg = parse_failure(std::string(khostile_header) +
                                    "sinks -1\n1 1 1e-15 0\n");
    EXPECT_NE(msg.find("line 6: bad sinks line"), std::string::npos) << msg;
    msg = parse_failure(std::string(khostile_header) +
                        "sinks 2x\n1 1 1e-15 0\n");
    EXPECT_NE(msg.find("line 6: bad sinks line"), std::string::npos) << msg;
}

TEST(InstanceIo, HugeSinkCountFailsOnMissingLinesNotAllocation) {
    const std::string msg = parse_failure(std::string(khostile_header) +
                                          "sinks 2000000000\n1 1 1e-15 0\n");
    EXPECT_NE(msg.find("line 7: expected more sink lines"),
              std::string::npos)
        << msg;
}

TEST(InstanceIo, RejectsSinksOutsideTheDieOrNonFinite) {
    std::string msg = parse_failure(std::string(khostile_header) +
                                    "sinks 2\n1 1 1e-15 0\n1e300 5 1e-15 0\n");
    EXPECT_NE(msg.find("line 8: sink outside the declared die"),
              std::string::npos)
        << msg;
    msg = parse_failure(std::string(khostile_header) +
                        "sinks 1\n-0.5 5 1e-15 0\n");
    EXPECT_NE(msg.find("line 7: sink outside the declared die"),
              std::string::npos)
        << msg;
    msg = parse_failure(std::string(khostile_header) +
                        "sinks 1\nnan 5 1e-15 0\n");
    EXPECT_NE(msg.find("line 7: bad sink line"), std::string::npos) << msg;
    msg = parse_failure(std::string(khostile_header) +
                        "sinks 1\n5 1e999 1e-15 0\n");
    EXPECT_NE(msg.find("line 7: bad sink line"), std::string::npos) << msg;
}

TEST(InstanceIo, DieCheckAcceptsEveryGeneratedBenchmark) {
    // Generated sinks lie in [0, die] (clustered ones are clamped onto the
    // edge), and the writer's full precision round-trips them exactly.
    for (const char* name : {"r1", "r2", "r3", "r4", "r5", "l1", "l2", "l3"}) {
        auto inst = gen::generate(name[0] == 'l' ? gen::large_spec(name)
                                                 : gen::paper_spec(name));
        gen::apply_clustered_groups(inst, 8);
        std::stringstream ss;
        write_instance(ss, inst);
        topo::instance back;
        ASSERT_NO_THROW(back = read_instance(ss)) << name;
        ASSERT_EQ(back.sinks.size(), inst.sinks.size()) << name;
        for (std::size_t i = 0; i < inst.sinks.size(); ++i)
            ASSERT_EQ(back.sinks[i], inst.sinks[i]) << name << " sink " << i;
    }
}

TEST(Svg, RendersRoutedTree) {
    auto inst = gen::generate(gen::paper_spec("r1"));
    inst.sinks.resize(40);
    inst.num_groups = 1;
    gen::apply_intermingled_groups(inst, 3, 1);
    const auto route = core::route_ast_dme(inst);
    std::stringstream ss;
    svg_options opt;
    opt.draw_arcs = true;
    write_tree_svg(ss, route.tree, inst, opt);
    const std::string svg = ss.str();
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("<circle"), std::string::npos);  // sinks
    EXPECT_NE(svg.find("<path"), std::string::npos);    // edges
}

TEST(Table, AlignsColumnsAndFormats) {
    table t({"Circuit", "Wirelen", "Reduction"});
    t.add_row({"r1", table::integer(1070421.4), table::percent(0.0939)});
    t.add_rule();
    t.add_row({"r2", table::integer(2169791.0), table::percent(0.105)});
    std::stringstream ss;
    t.print(ss);
    const std::string s = ss.str();
    EXPECT_NE(s.find("1070421"), std::string::npos);
    EXPECT_NE(s.find("9.39%"), std::string::npos);
    EXPECT_NE(s.find("10.50%"), std::string::npos);
    EXPECT_NE(s.find("| Circuit "), std::string::npos);
}

TEST(TreeJson, ExportsConsistentStructure) {
    auto inst = gen::generate(gen::paper_spec("r1"));
    inst.sinks.resize(25);
    inst.num_groups = 1;
    gen::apply_intermingled_groups(inst, 2, 4);
    const auto route = core::route_ast_dme(inst);
    std::stringstream ss;
    write_tree_json(ss, route.tree, inst);
    const std::string j = ss.str();
    // Structural markers: one node object per tree node, root id, and the
    // booked wirelength.
    std::size_t count = 0, pos = 0;
    while ((pos = j.find("\"id\":", pos)) != std::string::npos) {
        ++count;
        ++pos;
    }
    EXPECT_EQ(count, route.tree.size());
    EXPECT_NE(j.find("\"root\": " + std::to_string(route.tree.root())),
              std::string::npos);
    EXPECT_NE(j.find("\"wirelength\":"), std::string::npos);
    EXPECT_NE(j.find("\"edge_left\":"), std::string::npos);
    EXPECT_NE(j.find("\"group\":"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));
}

TEST(Table, FixedFormatting) {
    EXPECT_EQ(table::fixed(3.14159, 2), "3.14");
    EXPECT_EQ(table::integer(41.7), "42");
    EXPECT_EQ(table::percent(0.5), "50.00%");
}

}  // namespace
}  // namespace astclk::io
