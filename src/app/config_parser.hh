/**
 * @file
 * Parser for the application configuration files of Section 5 ("the
 * application phases and parameters are specified using a
 * configuration file").
 *
 * Format (line oriented, '#' comments):
 *
 *     app = my-application
 *
 *     [phase warmup]
 *     thread = fft0@16K, sort0@16K
 *     thread = tgen3@4M ; loops=2
 *
 * Each `thread` line is a comma-separated accelerator chain of
 * `instance@size` steps; sizes accept K/M suffixes. The optional
 * `; loops=N` repeats the chain N times.
 */

#ifndef COHMELEON_APP_CONFIG_PARSER_HH
#define COHMELEON_APP_CONFIG_PARSER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "app/app_spec.hh"

namespace cohmeleon::app
{

/** Parse an application spec. @throws FatalError with line info */
AppSpec parseAppSpec(std::istream &is);

/** Trim ASCII whitespace (shared by the config/scenario parsers). */
std::string trimText(const std::string &s);

/** Split @p s on @p sep, trimming every piece. */
std::vector<std::string> splitList(const std::string &s, char sep);

/** Parse from a string (convenience for tests and examples). */
AppSpec parseAppSpecString(const std::string &text);

/** Parse a size literal like "256", "16K", "4M".
 *  @throws FatalError on malformed input */
std::uint64_t parseSize(const std::string &text);

// ------------------------------------------------------------------
// Shared 'key = value' plumbing. The scenario, campaign, and serve
// spec parsers are all the same line-oriented grammar ('#' comments,
// 'key = value', optional '[section]' headers); they differ only in
// which keys they accept. Scanning and typed value parsing live here
// once, so every spec family gets line-numbered diagnostics — and
// parse(serialize(x)) == x — for free when it grows a key.
// ------------------------------------------------------------------

/** One parsed physical line: a section header or a key=value pair.
 *  A command-line flag is a line too (`--KEY VALUE`, no = 0). */
struct ConfigLine
{
    unsigned no = 0; ///< 1-based line number; 0 = not from a file
    bool isSection = false;
    std::string section;    ///< header word ("axes", "cell", ...)
    std::string sectionArg; ///< rest of the header ("cell NAME")
    std::string key;
    std::string value;
};

/** Throw FatalError("line <lineNo>: <msg>"), or plain <msg> when
 *  lineNo is 0. Callers whose grammar carries its own prefix ("serve
 *  spec line N: ...") catch and re-throw with it prepended. */
[[noreturn]] void lineFatal(unsigned lineNo, const std::string &msg);

/** Scan a spec stream into lines ('#' comments stripped, blanks
 *  dropped). @throws FatalError with a line number on malformed
 *  headers or lines without '=' */
std::vector<ConfigLine> scanConfigLines(std::istream &is);

/** Typed value parsers, all throwing via lineFatal() so malformed
 *  values carry the offending line number. */
std::uint64_t parseU64At(const std::string &text, unsigned lineNo);
unsigned parseU32At(const std::string &text, unsigned lineNo);
double parseDoubleAt(const std::string &text, unsigned lineNo);
bool parseBoolAt(const std::string &text, unsigned lineNo);
std::uint64_t parseSizeAt(const std::string &text, unsigned lineNo);

} // namespace cohmeleon::app

#endif // COHMELEON_APP_CONFIG_PARSER_HH
