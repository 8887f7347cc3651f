/**
 * @file
 * The command-line tools' option table: one Flag row per flag, from
 * which parseFlags reads argv and printFlags writes the usage text.
 */

#ifndef WSL_TOOLS_PARSE_NUMBER_HH
#define WSL_TOOLS_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace wsl {

/**
 * Parse an entire option value as a T (an integer type, or double).
 * Empty input, a non-numeric value, trailing characters, a sign on an
 * unsigned type, overflow and non-finite reals all yield nothing.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    bool ok = ec == std::errc{} && end == last;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    return ok ? std::optional<T>(value) : std::nullopt;
}

/** How a flag's value text is read into the options struct Opts. */
template <typename Opts>
struct FlagValue
{
    std::string meta;  //!< value placeholder in the usage text; "" = switch
    std::function<bool(Opts &, const std::string &)> read;  //!< false: invalid
};

/** A number in [lo, hi], stored in `field`. */
template <typename Opts, typename T>
FlagValue<Opts>
number(T Opts::*field, const char *meta,
       std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
       std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    return {meta, [=](Opts &o, const std::string &text) {
                const std::optional<T> v = parseNumber<T>(text);
                if (!v || *v < lo || *v > hi)
                    return false;
                o.*field = *v;
                return true;
            }};
}

/** One of a fixed list of names, stored as the value paired with it. */
template <typename Opts, typename T>
FlagValue<Opts>
choice(T Opts::*field, std::vector<std::pair<const char *, T>> names)
{
    std::string meta;
    for (const auto &name : names)
        meta += (meta.empty() ? "" : "|") + std::string(name.first);
    return {meta, [=](Opts &o, const std::string &text) {
                for (const auto &[name, value] : names) {
                    if (text == name) {
                        o.*field = value;
                        return true;
                    }
                }
                return false;
            }};
}

/** A file or directory name, stored as given. */
template <typename Opts>
FlagValue<Opts>
text(std::string Opts::*field, const char *meta = "FILE")
{
    return {meta, [=](Opts &o, const std::string &t) {
                o.*field = t;
                return true;
            }};
}

/** A switch: giving the flag sets `field`. */
template <typename Opts>
FlagValue<Opts>
toggle(bool Opts::*field)
{
    return {"", [=](Opts &o, const std::string &) {
                o.*field = true;
                return true;
            }};
}

/** One row of a tool's option table. */
template <typename Opts>
struct Flag
{
    const char *name;  //!< "--window"
    FlagValue<Opts> value;
    const char *help;
    unsigned commands = ~0u;          //!< bit i set: command i reads it
    const char *needs = nullptr;      //!< a flag that must also be given
    const char *inertWith = nullptr;  //!< a flag that makes this one inert
    const char *bare = nullptr;       //!< bare flag's value; else --name=V
};

/**
 * Read argv[first, argc) against `flags` for the command whose bit is
 * `command` and return the positional arguments. An unknown flag, one
 * the command does not read, a missing or invalid value, a missing
 * `needs` and a given `inertWith` print why and yield nothing.
 */
template <typename Opts>
std::optional<std::vector<std::string>>
parseFlags(const std::vector<Flag<Opts>> &flags, Opts &opts,
           const char *tool, unsigned command, int first, int argc,
           char **argv)
{
    const auto fail = [&](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n", tool, why.c_str());
        return std::nullopt;
    };
    std::vector<std::string> positional;
    std::set<std::string_view> given;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            positional.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const Flag<Opts> *flag = nullptr;
        for (const Flag<Opts> &f : flags)
            if (name == f.name && (eq == std::string::npos || f.bare))
                flag = &f;
        if (!flag)
            return fail("unknown flag " + arg);
        if (!(flag->commands & command))
            return fail(name + " is not read by this command");
        std::string value = flag->bare ? flag->bare : "";
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (!flag->bare && !flag->value.meta.empty()) {
            if (++i >= argc)
                return fail(name + " needs a value");
            value = argv[i];
        }
        if (!flag->value.read(opts, value))
            return fail(name + ": invalid value '" + value + "'");
        given.insert(flag->name);
    }
    for (const Flag<Opts> &f : flags) {
        if (!given.count(f.name))
            continue;
        if (f.needs && !given.count(f.needs))
            return fail(std::string(f.name) + " needs " + f.needs);
        if (f.inertWith && given.count(f.inertWith))
            return fail(std::string(f.name) + " has no effect with " +
                        f.inertWith);
    }
    return positional;
}

/** Print one usage line per flag to stderr, naming the commands that
 *  read it when the tool has commands. */
template <typename Opts>
void
printFlags(const std::vector<Flag<Opts>> &flags,
           const std::vector<std::string> &commandNames = {})
{
    for (const Flag<Opts> &f : flags) {
        const std::string &meta = f.value.meta;
        std::string head = f.name, help = f.help, readers;
        head += f.bare ? "[=" + meta + "]" : meta.empty() ? "" : " " + meta;
        if (f.needs)
            help += std::string("; needs ") + f.needs;
        if (f.inertWith)
            help += std::string("; not with ") + f.inertWith;
        for (std::size_t c = 0; c < commandNames.size(); ++c)
            if (f.commands >> c & 1u)
                readers += " " + commandNames[c];
        if (!readers.empty())
            help += " [" + readers.substr(1) + "]";
        std::fprintf(stderr, "  %-22s %s\n", head.c_str(), help.c_str());
    }
}

} // namespace wsl

#endif // WSL_TOOLS_PARSE_NUMBER_HH
