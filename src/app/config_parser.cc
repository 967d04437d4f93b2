#include "app/config_parser.hh"

#include <cctype>
#include <istream>
#include <sstream>

#include "sim/logging.hh"

namespace cohmeleon::app
{

std::string
trimText(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    std::string current;
    for (char c : s) {
        if (c == sep) {
            parts.push_back(trimText(current));
            current.clear();
        } else {
            current += c;
        }
    }
    parts.push_back(trimText(current));
    return parts;
}

std::uint64_t
parseSize(const std::string &text)
{
    const std::string t = trimText(text);
    fatalIf(t.empty(), "empty size literal");
    std::uint64_t multiplier = 1;
    std::string digits = t;
    const char last = t.back();
    if (last == 'K' || last == 'k') {
        multiplier = 1024;
        digits = t.substr(0, t.size() - 1);
    } else if (last == 'M' || last == 'm') {
        multiplier = 1024 * 1024;
        digits = t.substr(0, t.size() - 1);
    }
    fatalIf(digits.empty(), "malformed size literal '", t, "'");
    std::uint64_t value = 0;
    for (char c : digits) {
        fatalIf(!std::isdigit(static_cast<unsigned char>(c)),
                "malformed size literal '", t, "'");
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        fatalIf(value > (UINT64_MAX - digit) / 10,
                "size literal '", t, "' overflows 64 bits");
        value = value * 10 + digit;
    }
    fatalIf(multiplier != 1 && value > UINT64_MAX / multiplier,
            "size literal '", t, "' overflows 64 bits");
    return value * multiplier;
}

void
lineFatal(unsigned lineNo, const std::string &msg)
{
    if (lineNo == 0)
        fatal(msg);
    fatal("line ", lineNo, ": ", msg);
}

std::uint64_t
parseU64At(const std::string &text, unsigned lineNo)
{
    const std::string t = trimText(text);
    if (t.empty() || !std::isdigit(static_cast<unsigned char>(t[0])))
        lineFatal(lineNo, "expected a number, got '" + text + "'");
    try {
        std::size_t used = 0;
        const std::uint64_t n = std::stoull(t, &used);
        if (used != t.size())
            lineFatal(lineNo, "trailing garbage in number '" + t + "'");
        return n;
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        lineFatal(lineNo, "malformed number '" + t + "'");
    }
}

unsigned
parseU32At(const std::string &text, unsigned lineNo)
{
    const std::uint64_t n = parseU64At(text, lineNo);
    if (n > UINT32_MAX)
        lineFatal(lineNo, "number '" + trimText(text) + "' too large");
    return static_cast<unsigned>(n);
}

double
parseDoubleAt(const std::string &text, unsigned lineNo)
{
    const std::string t = trimText(text);
    try {
        std::size_t used = 0;
        const double v = std::stod(t, &used);
        if (used != t.size())
            lineFatal(lineNo,
                      "trailing garbage in number '" + t + "'");
        return v;
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        lineFatal(lineNo, "malformed number '" + t + "'");
    }
}

bool
parseBoolAt(const std::string &text, unsigned lineNo)
{
    const std::string t = trimText(text);
    if (t == "true")
        return true;
    if (t == "false")
        return false;
    lineFatal(lineNo, "expected true or false, got '" + t + "'");
}

std::uint64_t
parseSizeAt(const std::string &text, unsigned lineNo)
{
    try {
        return parseSize(text);
    } catch (const FatalError &e) {
        lineFatal(lineNo, e.what());
    }
}

std::vector<ConfigLine>
scanConfigLines(std::istream &is)
{
    std::vector<ConfigLine> out;
    std::string line;
    unsigned lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trimText(line);
        if (line.empty())
            continue;

        ConfigLine cl;
        cl.no = lineNo;
        if (line.front() == '[') {
            if (line.back() != ']')
                lineFatal(lineNo, "unterminated section header");
            const std::string inner =
                trimText(line.substr(1, line.size() - 2));
            if (inner.empty())
                lineFatal(lineNo, "empty section header");
            cl.isSection = true;
            const std::size_t space = inner.find_first_of(" \t");
            if (space == std::string::npos) {
                cl.section = inner;
            } else {
                cl.section = inner.substr(0, space);
                cl.sectionArg = trimText(inner.substr(space));
            }
            out.push_back(std::move(cl));
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            lineFatal(lineNo, "expected 'key = value'");
        cl.key = trimText(line.substr(0, eq));
        cl.value = trimText(line.substr(eq + 1));
        if (cl.key.empty())
            lineFatal(lineNo, "empty key");
        out.push_back(std::move(cl));
    }
    return out;
}

AppSpec
parseAppSpec(std::istream &is)
{
    AppSpec app;
    PhaseSpec *phase = nullptr;
    std::string line;
    unsigned lineNo = 0;

    while (std::getline(is, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trimText(line);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            fatalIf(line.back() != ']', "line ", lineNo,
                    ": unterminated section header");
            const std::string inner =
                trimText(line.substr(1, line.size() - 2));
            fatalIf(inner.rfind("phase", 0) != 0, "line ", lineNo,
                    ": only [phase <name>] sections are supported");
            PhaseSpec p;
            p.name = trimText(inner.substr(5));
            fatalIf(p.name.empty(), "line ", lineNo,
                    ": phase needs a name");
            app.phases.push_back(std::move(p));
            phase = &app.phases.back();
            continue;
        }

        const std::size_t eq = line.find('=');
        fatalIf(eq == std::string::npos, "line ", lineNo,
                ": expected 'key = value'");
        const std::string key = trimText(line.substr(0, eq));
        const std::string value = trimText(line.substr(eq + 1));

        if (key == "app") {
            app.name = value;
            continue;
        }

        fatalIf(key != "thread", "line ", lineNo, ": unknown key '",
                key, "'");
        fatalIf(phase == nullptr, "line ", lineNo,
                ": 'thread' outside any [phase] section");

        // "<chain> [; loops=N]"
        ThreadSpec thread;
        std::string chainText = value;
        const std::size_t semi = value.find(';');
        if (semi != std::string::npos) {
            chainText = trimText(value.substr(0, semi));
            const std::string opts = trimText(value.substr(semi + 1));
            const std::size_t oeq = opts.find('=');
            fatalIf(oeq == std::string::npos ||
                        trimText(opts.substr(0, oeq)) != "loops",
                    "line ", lineNo, ": malformed thread option '",
                    opts, "'");
            const std::uint64_t loops =
                parseSize(trimText(opts.substr(oeq + 1)));
            // The narrowing below used to wrap silently for
            // K/M-suffixed monsters like "20000000000M".
            fatalIf(loops > UINT32_MAX, "line ", lineNo,
                    ": loops value overflows");
            thread.loops = static_cast<unsigned>(loops);
            fatalIf(thread.loops == 0, "line ", lineNo,
                    ": loops must be positive");
        }

        for (const std::string &stepText : splitList(chainText, ',')) {
            fatalIf(stepText.empty(), "line ", lineNo,
                    ": empty chain step");
            const std::size_t at = stepText.find('@');
            fatalIf(at == std::string::npos, "line ", lineNo,
                    ": chain step '", stepText,
                    "' must be instance@size");
            ChainStep step;
            step.accName = trimText(stepText.substr(0, at));
            step.footprintBytes = parseSize(stepText.substr(at + 1));
            fatalIf(step.accName.empty(), "line ", lineNo,
                    ": chain step without an instance name");
            thread.chain.push_back(std::move(step));
        }
        phase->threads.push_back(std::move(thread));
    }

    fatalIf(app.phases.empty(), "application file defines no phases");
    return app;
}

AppSpec
parseAppSpecString(const std::string &text)
{
    std::istringstream is(text);
    return parseAppSpec(is);
}

} // namespace cohmeleon::app
