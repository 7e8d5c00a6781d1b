#include "analyzer.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "lexer.hpp"
#include "project_model.hpp"
#include "project_rules.hpp"
#include "scan_util.hpp"

namespace vboost::vblint {

namespace {

// ---------------------------------------------------- type environment

/** Identifiers whose declared type matters to the rules. */
struct DeclEnv
{
    std::set<std::string> unorderedNames;
};

const std::set<std::string> &
unorderedTypes()
{
    static const std::set<std::string> kTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    return kTypes;
}

void
collectDecls(const LexedSource &src, DeclEnv &env)
{
    const auto &toks = src.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            !unorderedTypes().count(toks[i].text))
            continue;
        std::size_t j = skipAngles(toks, i + 1);
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                toks[j].text == "const"))
            ++j;
        if (j < toks.size() && toks[j].kind == TokKind::Ident)
            env.unorderedNames.insert(toks[j].text);
    }
}

// ------------------------------------------------------- annotations

struct ParsedAnnotation
{
    int line = 0;
    int targetLine = 0;
    Rule rule = Rule::VB001;
    std::string reason;
    bool used = false;
    bool malformed = false;
};

ParsedAnnotation
parseAnnotation(const RawAnnotation &raw, const LexedSource &src)
{
    ParsedAnnotation a;
    a.line = raw.line;

    // An own-line annotation suppresses the next code line — the next
    // token OR the next preprocessor directive, whichever comes first
    // (so a waiver can sit above an #include for VB006).
    int next_code = std::numeric_limits<int>::max();
    if (raw.nextTokenIndex < src.tokens.size())
        next_code = src.tokens[raw.nextTokenIndex].line;
    for (const Directive &d : src.directives) {
        if (d.line > raw.line) {
            next_code = std::min(next_code, d.line);
            break;
        }
    }
    if (next_code == std::numeric_limits<int>::max())
        next_code = raw.line;
    a.targetLine = raw.trailing ? raw.line : next_code;

    const std::string &t = raw.text;
    const std::size_t paren = t.find('(');
    std::string word = t.substr(0, paren == std::string::npos ? t.size()
                                                              : paren);
    while (!word.empty() && (word.back() == ' ' || word.back() == '\t'))
        word.pop_back();
    std::string inner;
    if (paren != std::string::npos) {
        const std::size_t close = t.rfind(')');
        if (close == std::string::npos || close < paren) {
            a.malformed = true;
            return a;
        }
        inner = t.substr(paren + 1, close - paren - 1);
    }

    auto trimmed = [](std::string s) {
        const std::size_t b = s.find_first_not_of(" \t");
        if (b == std::string::npos)
            return std::string();
        const std::size_t e = s.find_last_not_of(" \t");
        return s.substr(b, e - b + 1);
    };

    if (word == "allow") {
        const std::size_t comma = inner.find(',');
        const std::string name =
            trimmed(comma == std::string::npos ? inner
                                               : inner.substr(0, comma));
        const auto rule = ruleFromName(name);
        if (!rule) {
            a.malformed = true;
            return a;
        }
        a.rule = *rule;
        a.reason = comma == std::string::npos
                       ? ""
                       : trimmed(inner.substr(comma + 1));
        return a;
    }
    if (word == "ordered-ok") {
        a.rule = Rule::VB002;
        a.reason = trimmed(inner);
        return a;
    }
    a.malformed = true;
    return a;
}

struct Frame
{
    enum class Ctx { Top, Namespace, Class, Enum, Function, Block, Init };
    Ctx ctx = Ctx::Top;
    int savedParenDepth = 0;
};

using Ctx = Frame::Ctx;

bool
headContains(const std::vector<const Token *> &head, const char *text)
{
    for (const Token *t : head)
        if (t->text == text)
            return true;
    return false;
}

/** Name + line of the declared entity: the last identifier before the
 *  first '=' (or before the end of the head). */
const Token *
declaredName(const std::vector<const Token *> &head)
{
    const Token *name = nullptr;
    for (const Token *t : head) {
        if (t->text == "=")
            break;
        if (t->kind == TokKind::Ident)
            name = t;
    }
    return name;
}

class FileChecker
{
  public:
    FileChecker(const std::string &path, const LexedSource &src,
                const DeclEnv &env)
        : path_(path),
          comps_(pathComponents(path)),
          src_(src),
          env_(env),
          modelCode_(isModelCode(comps_)),
          header_(isHeaderPath(path))
    {
    }

    std::vector<Diagnostic>
    run()
    {
        if (header_)
            checkHeaderGuard();
        walk();
        return std::move(diags_);
    }

  private:
    void
    report(Rule rule, int line, std::string message)
    {
        Diagnostic d;
        d.file = path_;
        d.line = line;
        d.rule = rule;
        d.message = std::move(message);
        d.sourceLine = src_.line(line);
        diags_.push_back(std::move(d));
    }

    // ---- VB005: include guard ------------------------------------
    void
    checkHeaderGuard()
    {
        bool pragma_once = false;
        std::string ifndef_macro;
        bool guarded = false;
        for (const Directive &d : src_.directives) {
            std::string body = d.text;
            if (!body.empty() && body.front() == '#')
                body.erase(body.begin());
            while (!body.empty() && body.front() == ' ')
                body.erase(body.begin());
            if (body.rfind("pragma", 0) == 0 &&
                body.find("once") != std::string::npos)
                pragma_once = true;
            else if (body.rfind("ifndef ", 0) == 0 && ifndef_macro.empty())
                ifndef_macro = body.substr(7);
            else if (body.rfind("define ", 0) == 0 && !ifndef_macro.empty()) {
                std::string name = body.substr(7);
                const std::size_t sp = name.find(' ');
                if (sp != std::string::npos)
                    name = name.substr(0, sp);
                if (name == ifndef_macro)
                    guarded = true;
            }
        }
        if (!pragma_once && !guarded)
            report(Rule::VB005, 1,
                   "header has no include guard (#pragma once or a "
                   "matching #ifndef/#define pair)");
    }

    // ---- main token walk -----------------------------------------
    void
    walk()
    {
        const auto &toks = src_.tokens;
        stack_.push_back({Ctx::Top, 0});
        head_.clear();
        parenDepth_ = 0;

        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];

            if (t.kind == TokKind::Ident) {
                checkBannedIdent(toks, i);
                checkUsingNamespace(toks, i);
                checkUnorderedIteration(toks, i);
            }

            if (t.text == "(") {
                ++parenDepth_;
                head_.push_back(&t);
                continue;
            }
            if (t.text == ")") {
                parenDepth_ = std::max(0, parenDepth_ - 1);
                head_.push_back(&t);
                continue;
            }

            if (t.text == "{" && parenDepth_ == 0) {
                pushBrace();
                continue;
            }
            if (t.text == "}" && parenDepth_ == 0) {
                if (stack_.size() > 1) {
                    parenDepth_ = stack_.back().savedParenDepth;
                    stack_.pop_back();
                }
                head_.clear();
                continue;
            }
            if (t.text == ";" && parenDepth_ == 0) {
                endStatement();
                continue;
            }

            head_.push_back(&t);
        }
    }

    void
    pushBrace()
    {
        const Ctx cur = stack_.back().ctx;
        Frame f;
        f.savedParenDepth = parenDepth_;
        parenDepth_ = 0;

        const bool has_paren = headContains(head_, "(");
        const std::string first =
            head_.empty() ? "" : head_.front()->text;

        if (headContains(head_, "namespace") && !has_paren) {
            f.ctx = Ctx::Namespace;
        } else if (headContains(head_, "enum")) {
            f.ctx = Ctx::Enum;
        } else if ((headContains(head_, "class") ||
                    headContains(head_, "struct") ||
                    headContains(head_, "union")) &&
                   !has_paren) {
            f.ctx = Ctx::Class;
        } else if (first == "for" || first == "while" || first == "do" ||
                   cur == Ctx::Function || cur == Ctx::Block ||
                   cur == Ctx::Init) {
            f.ctx = Ctx::Block;
        } else if (has_paren) {
            f.ctx = Ctx::Function;
        } else if (headContains(head_, "=")) {
            f.ctx = Ctx::Init;
        } else {
            // Brace initialization of a variable, e.g.
            // `std::atomic<bool> quietFlag{false};` at namespace scope.
            f.ctx = Ctx::Init;
            if (cur == Ctx::Top || cur == Ctx::Namespace)
                checkNamespaceVariable();
            else if (cur == Ctx::Class)
                checkStaticDeclaration(/*require_static=*/true);
        }
        stack_.push_back(f);
        head_.clear();
    }

    void
    endStatement()
    {
        const Ctx cur = stack_.back().ctx;
        if (cur == Ctx::Top || cur == Ctx::Namespace)
            checkNamespaceVariable();
        else if (cur == Ctx::Class || cur == Ctx::Function ||
                 cur == Ctx::Block)
            checkStaticDeclaration(/*require_static=*/true);
        head_.clear();
    }

    // ---- VB001 ----------------------------------------------------
    void
    checkBannedIdent(const std::vector<Token> &toks, std::size_t i)
    {
        if (!modelCode_)
            return;
        const std::string &text = toks[i].text;
        const std::string prev = i > 0 ? toks[i - 1].text : "";
        if (prev == "." || prev == "->")
            return; // member access on some object; not the libc symbol
        if (bannedTypeIdents().count(text)) {
            report(Rule::VB001, toks[i].line,
                   "use of banned nondeterminism source '" + text +
                       "' in model code (seeded vboost::Rng streams "
                       "only; see --explain VB001)");
            return;
        }
        if (bannedCallIdents().count(text) && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
            report(Rule::VB001, toks[i].line,
                   "call to banned nondeterminism source '" + text +
                       "()' in model code (seeded vboost::Rng streams "
                       "only; see --explain VB001)");
        }
    }

    // ---- VB002 ----------------------------------------------------
    void
    checkUnorderedIteration(const std::vector<Token> &toks, std::size_t i)
    {
        const std::string &text = toks[i].text;
        // Range-for: `for ( ... : expr )` with an unordered name in expr.
        if (text == "for" && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
            int depth = 0;
            std::size_t colon = 0;
            std::size_t close = 0;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                if (toks[j].text == "(")
                    ++depth;
                else if (toks[j].text == ")") {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                } else if (toks[j].text == ":" && depth == 1 && colon == 0)
                    colon = j;
            }
            if (colon == 0 || close == 0)
                return;
            for (std::size_t j = colon + 1; j < close; ++j) {
                if (toks[j].kind == TokKind::Ident &&
                    env_.unorderedNames.count(toks[j].text)) {
                    report(Rule::VB002, toks[j].line,
                           "iteration over unordered container '" +
                               toks[j].text +
                               "' (order is hash-table dependent; see "
                               "--explain VB002)");
                    return;
                }
            }
            return;
        }
        // Iterator loop: `name.begin()` / `name.cbegin()`.
        if ((text == "begin" || text == "cbegin") && i >= 2 &&
            toks[i - 1].text == "." &&
            toks[i - 2].kind == TokKind::Ident &&
            env_.unorderedNames.count(toks[i - 2].text) &&
            i + 1 < toks.size() && toks[i + 1].text == "(") {
            report(Rule::VB002, toks[i].line,
                   "iteration over unordered container '" +
                       toks[i - 2].text +
                       "' (order is hash-table dependent; see --explain "
                       "VB002)");
        }
    }

    // ---- VB004 ----------------------------------------------------
    bool
    headIsSkippableDeclaration() const
    {
        static const char *kSkip[] = {
            "using",  "typedef", "namespace", "template",      "friend",
            "operator", "extern", "static_assert", "concept",  "requires",
            "enum",   "class",   "struct",    "union"};
        for (const char *kw : kSkip)
            if (headContains(head_, kw))
                return true;
        if (headContains(head_, "(") || headContains(head_, "const") ||
            headContains(head_, "constexpr") ||
            headContains(head_, "consteval"))
            return true;
        return false;
    }

    void
    checkNamespaceVariable()
    {
        if (!modelCode_ || head_.empty())
            return;
        if (headIsSkippableDeclaration())
            return;
        int idents = 0;
        for (const Token *t : head_)
            if (t->kind == TokKind::Ident)
                ++idents;
        if (idents < 2)
            return; // a stray expression or label, not a declaration
        const Token *name = declaredName(head_);
        if (!name)
            return;
        report(Rule::VB004, name->line,
               "mutable global state '" + name->text +
                   "' at namespace scope in model code (see --explain "
                   "VB004)");
    }

    void
    checkStaticDeclaration(bool require_static)
    {
        if (!modelCode_ || head_.empty())
            return;
        const std::string &first = head_.front()->text;
        if (require_static && first != "static" && first != "thread_local")
            return;
        if (headIsSkippableDeclaration())
            return;
        int idents = 0;
        for (const Token *t : head_)
            if (t->kind == TokKind::Ident)
                ++idents;
        if (idents < 3) // static + type + name
            return;
        const Token *name = declaredName(head_);
        if (!name)
            return;
        report(Rule::VB004, name->line,
               "mutable static state '" + name->text +
                   "' in model code (see --explain VB004)");
    }

    // ---- VB005: using namespace in headers ------------------------
    void
    checkUsingNamespace(const std::vector<Token> &toks, std::size_t i)
    {
        if (!header_)
            return;
        if (toks[i].text != "using" || i + 1 >= toks.size() ||
            toks[i + 1].text != "namespace")
            return;
        const Ctx cur = stack_.empty() ? Ctx::Top : stack_.back().ctx;
        if (cur == Ctx::Top || cur == Ctx::Namespace || cur == Ctx::Class)
            report(Rule::VB005, toks[i].line,
                   "'using namespace' at namespace scope in a header "
                   "leaks into every includer (see --explain VB005)");
    }

    const std::string path_;
    const std::vector<std::string> comps_;
    const LexedSource &src_;
    const DeclEnv &env_;
    const bool modelCode_;
    const bool header_;

    std::vector<Frame> stack_;
    std::vector<const Token *> head_;
    int parenDepth_ = 0;
    std::vector<Diagnostic> diags_;
};

/** Apply a file's `// vblint:` annotations to its diagnostics:
 *  suppress matches, then surface malformed (VB901) and unused (VB900)
 *  annotations as diagnostics of their own, and sort. */
void
resolveAnnotations(const std::string &path, const LexedSource &src,
                   std::vector<Diagnostic> &diags,
                   std::vector<Suppression> &suppressions)
{
    std::vector<ParsedAnnotation> annotations;
    annotations.reserve(src.annotations.size());
    for (const RawAnnotation &raw : src.annotations)
        annotations.push_back(parseAnnotation(raw, src));

    for (Diagnostic &d : diags) {
        for (ParsedAnnotation &a : annotations) {
            if (!a.malformed && a.rule == d.rule &&
                a.targetLine == d.line) {
                d.status = DiagStatus::Suppressed;
                a.used = true;
                break;
            }
        }
    }

    for (const ParsedAnnotation &a : annotations) {
        if (a.malformed) {
            Diagnostic d;
            d.file = path;
            d.line = a.line;
            d.rule = Rule::VB901;
            d.message =
                "malformed vblint annotation (expected allow(VBxxx, "
                "reason) or ordered-ok(reason))";
            d.sourceLine = src.line(a.line);
            diags.push_back(std::move(d));
            continue;
        }
        Suppression s;
        s.file = path;
        s.line = a.line;
        s.targetLine = a.targetLine;
        s.rule = a.rule;
        s.reason = a.reason;
        s.used = a.used;
        suppressions.push_back(std::move(s));
        if (!a.used) {
            Diagnostic d;
            d.file = path;
            d.line = a.line;
            d.rule = Rule::VB900;
            d.message = "unused vblint suppression for " +
                        ruleName(a.rule) +
                        " (no matching diagnostic on line " +
                        std::to_string(a.targetLine) + ")";
            d.sourceLine = src.line(a.line);
            diags.push_back(std::move(d));
        }
    }

    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return ruleName(a.rule) < ruleName(b.rule);
              });
}

} // namespace

FileAnalysis
analyzeSource(const std::string &path, const std::string &content,
              const std::string &sibling_header)
{
    const RepoReport report = analyzeAll({{path, content, sibling_header}});
    FileAnalysis out;
    out.diagnostics = report.diagnostics;
    out.suppressions = report.suppressions;
    return out;
}

int
RepoReport::countWithStatus(DiagStatus s) const
{
    int n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.status == s)
            ++n;
    return n;
}

RepoReport
analyzeAll(const std::vector<SourceInput> &inputs)
{
    RepoReport report;
    report.filesScanned = static_cast<int>(inputs.size());

    // ---- pass 1: project model (lex once, include graph, symbols) --
    const ProjectModel model = buildProjectModel(inputs);

    // ---- pass 2: per-file rules + project rules --------------------
    std::map<std::string, std::vector<Diagnostic>> byFile;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const LexedFile &f = model.files[i];
        DeclEnv env;
        collectDecls(f.lex, env);
        if (f.siblingIndex >= 0)
            collectDecls(
                model.files[static_cast<std::size_t>(f.siblingIndex)].lex,
                env);
        FileChecker checker(f.path, f.lex, env);
        byFile[f.path] = checker.run();
    }

    std::vector<Diagnostic> projectDiags;
    runProjectRules(model, projectDiags);
    for (Diagnostic &d : projectDiags)
        byFile[d.file].push_back(std::move(d));

    // ---- waiver resolution, in input order --------------------------
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const LexedFile &f = model.files[i];
        std::vector<Diagnostic> diags = std::move(byFile[f.path]);
        byFile[f.path].clear(); // duplicate paths analyze once
        resolveAnnotations(f.path, f.lex, diags, report.suppressions);
        for (Diagnostic &d : diags)
            report.diagnostics.push_back(std::move(d));
    }
    return report;
}

} // namespace vboost::vblint
