#include "cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <set>

namespace perfbench {

namespace {

constexpr const char *kWorkloads[] = {"serve-open", "offline-pim",
                                      "model-sweep"};

/** Whole-string unsigned decimal; rejects signs, blanks and overflow. */
bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text.size() > 20 ||
        !std::all_of(text.begin(), text.end(),
                     [](char c) { return c >= '0' && c <= '9'; }))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

/** Whole-string finite decimal number (no hex, inf or nan). */
bool
parseDouble(const std::string &text, double *out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789.eE+-") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

} // namespace

std::string
usage()
{
    return "usage: perfbench --workload <serve-open|offline-pim|"
           "model-sweep> [--seed <n>] [--seconds <s>] [--trace <0|1>] "
           "[--trace-out <path>]\n";
}

ParseResult
parseArgs(const std::vector<std::string> &args)
{
    Options opts;
    std::set<std::string> seen;
    const auto fail = [](std::string msg) {
        return ParseResult{std::nullopt, std::move(msg)};
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--help" || flag == "-h") {
            opts.help = true;
            continue;
        }
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace" &&
            flag != "--trace-out")
            return fail(flag.rfind("-", 0) == 0
                            ? "unknown flag '" + flag + "'"
                            : "unexpected argument '" + flag + "'");
        if (!seen.insert(flag).second)
            return fail("flag '" + flag + "' given twice");
        if (i + 1 >= args.size())
            return fail("flag '" + flag + "' needs a value");
        const std::string &value = args[++i];

        if (flag == "--workload") {
            if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                          value) == std::end(kWorkloads))
                return fail("unknown workload '" + value + "'");
            opts.workload = value;
        } else if (flag == "--seed") {
            if (!parseU64(value, &opts.seed))
                return fail("--seed needs an unsigned integer, got '" +
                            value + "'");
        } else if (flag == "--seconds") {
            if (!parseDouble(value, &opts.seconds) ||
                opts.seconds < kMinSeconds || opts.seconds > kMaxSeconds)
                return fail("--seconds needs a number in [" +
                            std::to_string(static_cast<int>(kMinSeconds)) +
                            ", " +
                            std::to_string(static_cast<int>(kMaxSeconds)) +
                            "], got '" + value + "'");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return fail("--trace needs 0 or 1, got '" + value + "'");
            opts.trace = value == "1";
        } else {
            if (value.empty() || value[0] == '-')
                return fail("--trace-out needs a path, got '" + value +
                            "'");
            opts.trace_out = value;
        }
    }
    if (!opts.help && opts.workload.empty())
        return fail("--workload is required");
    return ParseResult{opts, ""};
}

} // namespace perfbench
