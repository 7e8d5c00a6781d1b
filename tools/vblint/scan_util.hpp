/**
 * @file
 * Small token/path helpers shared by the per-file rule passes
 * (analyzer.cpp) and the project-model passes (project_model.cpp,
 * project_rules.cpp). Header-only: these are tiny pure functions and
 * splitting them into a TU would buy nothing.
 */

#ifndef VBOOST_VBLINT_SCAN_UTIL_HPP
#define VBOOST_VBLINT_SCAN_UTIL_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace vboost::vblint {

inline std::vector<std::string>
pathComponents(const std::string &path)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : path) {
        if (c == '/' || c == '\\') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

inline bool
hasComponent(const std::vector<std::string> &comps, const std::string &c)
{
    return std::find(comps.begin(), comps.end(), c) != comps.end();
}

/** Model code: everything under src/ (bench/, examples/, tools/ and
 *  tests/ are CLI/driver layers where wall clocks are legitimate). */
inline bool
isModelCode(const std::vector<std::string> &comps)
{
    return !comps.empty() && comps.front() == "src";
}

inline bool
isModelCodePath(const std::string &path)
{
    return isModelCode(pathComponents(path));
}

inline bool
isHeaderPath(const std::string &path)
{
    auto ends = [&](const char *suf) {
        const std::string s(suf);
        return path.size() >= s.size() &&
               path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    return ends(".hpp") || ends(".h") || ends(".hh");
}

/** Skip a balanced <...> template argument list; returns the index
 *  just past the closing '>' (or `from` when not at a '<'). */
inline std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t from)
{
    if (from >= toks.size() || toks[from].text != "<")
        return from;
    int depth = 0;
    std::size_t i = from;
    // Bounded walk: a pathological '<' (comparison) gives up quickly.
    const std::size_t limit = std::min(toks.size(), from + 256);
    for (; i < limit; ++i) {
        if (toks[i].text == "<")
            ++depth;
        else if (toks[i].text == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (toks[i].text == ";")
            return from; // not a template argument list
    }
    return from;
}

/** Index just past the ')' matching the '(' at `open` (tokens.size()
 *  when unbalanced). @pre toks[open].text == "(". */
inline std::size_t
skipParens(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == "(")
            ++depth;
        else if (toks[i].text == ")") {
            if (--depth == 0)
                return i + 1;
        }
    }
    return toks.size();
}

/** Index just past the '}' matching the '{' at `open` (tokens.size()
 *  when unbalanced). @pre toks[open].text == "{". */
inline std::size_t
skipBraces(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == "{")
            ++depth;
        else if (toks[i].text == "}") {
            if (--depth == 0)
                return i + 1;
        }
    }
    return toks.size();
}

} // namespace vboost::vblint

#endif // VBOOST_VBLINT_SCAN_UTIL_HPP
