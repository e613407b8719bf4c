#include "io/instance_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace astclk::io {

namespace {

[[noreturn]] void parse_error(int line, const std::string& what) {
    std::ostringstream os;
    os << "instance parse error at line " << line << ": " << what;
    throw std::runtime_error(os.str());
}

/// Next non-comment, non-blank line; returns false at EOF.
bool next_line(std::istream& is, std::string& out, int& line_no) {
    while (std::getline(is, out)) {
        ++line_no;
        const auto pos = out.find('#');
        if (pos != std::string::npos) out.erase(pos);
        bool blank = true;
        for (char c : out)
            if (!std::isspace(static_cast<unsigned char>(c))) {
                blank = false;
                break;
            }
        if (!blank) return true;
    }
    return false;
}

}  // namespace

void write_instance(std::ostream& os, const topo::instance& inst) {
    os << "astclk-instance v1\n";
    os << "name " << (inst.name.empty() ? "unnamed" : inst.name) << '\n';
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "die " << inst.die_width << ' ' << inst.die_height << '\n';
    os << "source " << inst.source.x << ' ' << inst.source.y << '\n';
    os << "groups " << inst.num_groups << '\n';
    os << "sinks " << inst.sinks.size() << '\n';
    for (const auto& s : inst.sinks)
        os << s.loc.x << ' ' << s.loc.y << ' ' << s.cap << ' ' << s.group
           << '\n';
}

topo::instance read_instance(std::istream& is) {
    topo::instance inst;
    int line_no = 0;
    std::string line;

    if (!next_line(is, line, line_no) || line.rfind("astclk-instance", 0) != 0)
        parse_error(line_no, "missing 'astclk-instance' header");

    long long n_sinks = 0;
    bool have_die = false;
    bool have_sinks = false;
    while (!have_sinks) {
        if (!next_line(is, line, line_no))
            parse_error(line_no, "unexpected end of header");
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "name") {
            ls >> inst.name;
        } else if (key == "die") {
            if (!(ls >> inst.die_width >> inst.die_height) ||
                !std::isfinite(inst.die_width) ||
                !std::isfinite(inst.die_height) || inst.die_width < 0.0 ||
                inst.die_height < 0.0)
                parse_error(line_no, "bad die line");
            have_die = true;
        } else if (key == "source") {
            if (!(ls >> inst.source.x >> inst.source.y) ||
                !std::isfinite(inst.source.x) || !std::isfinite(inst.source.y))
                parse_error(line_no, "bad source line");
        } else if (key == "groups") {
            if (!(ls >> inst.num_groups))
                parse_error(line_no, "bad groups line");
        } else if (key == "sinks") {
            // Signed, so "-1" is rejected instead of wrapping to a huge
            // unsigned count; trailing garbage is rejected too.
            if (!(ls >> n_sinks) || n_sinks < 0 || !(ls >> std::ws).eof())
                parse_error(line_no, "bad sinks line");
            have_sinks = true;
        } else {
            parse_error(line_no, "unknown header key '" + key + "'");
        }
    }

    // The declared count is untrusted: reserve at most a bounded prefix
    // and let push_back grow past it, so a huge count fails on the
    // missing sink lines instead of on the allocation.
    constexpr long long kmax_reserve = 1 << 16;
    inst.sinks.reserve(
        static_cast<std::size_t>(std::min(n_sinks, kmax_reserve)));
    for (long long i = 0; i < n_sinks; ++i) {
        if (!next_line(is, line, line_no))
            parse_error(line_no, "expected more sink lines");
        std::istringstream ls(line);
        topo::sink s;
        if (!(ls >> s.loc.x >> s.loc.y >> s.cap >> s.group) ||
            !std::isfinite(s.loc.x) || !std::isfinite(s.loc.y) ||
            !std::isfinite(s.cap))
            parse_error(line_no, "bad sink line");
        if (have_die && (s.loc.x < 0.0 || s.loc.x > inst.die_width ||
                         s.loc.y < 0.0 || s.loc.y > inst.die_height))
            parse_error(line_no, "sink outside the declared die");
        inst.sinks.push_back(s);
    }
    const std::string problem = inst.validate();
    if (!problem.empty()) parse_error(line_no, "invalid instance: " + problem);
    return inst;
}

void save_instance(const std::string& path, const topo::instance& inst) {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open for writing: " + path);
    write_instance(f, inst);
}

topo::instance load_instance(const std::string& path) {
    std::ifstream f(path);
    if (!f) throw std::runtime_error("cannot open for reading: " + path);
    return read_instance(f);
}

}  // namespace astclk::io
