/**
 * @file
 * vblint CLI (DESIGN.md §10): the repo's determinism & modeling-hygiene
 * static analyzer. Scans C++ sources under --root (default: the
 * current directory) and fails the build when any diagnostic is not
 * suppressed by an inline `// vblint:` waiver.
 *
 *   vblint [options] [paths...]          # paths default to: src
 *
 * Options:
 *   --root <dir>            repo root paths are resolved against
 *   --json <file>           write the machine-readable report
 *   --explain <rule>        print a rule's rationale and exit
 *   --list-suppressions     dump the inline-waiver inventory and exit
 *   --github-annotations    emit ::error workflow commands
 *   --all                   also print suppressed findings
 *
 * Exit status: 0 clean, 1 unwaived diagnostics, 2 usage/IO error.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "report.hpp"

namespace fs = std::filesystem;
using namespace vboost::vblint;

namespace {

struct Options
{
    std::string root = ".";
    std::string jsonPath;
    std::string explainRule;
    bool githubAnnotations = false;
    bool listSuppressions = false;
    bool showAll = false;
    std::vector<std::string> paths;
};

void
usage(std::ostream &os)
{
    os << "usage: vblint [--root DIR] [--json FILE] [--explain RULE]\n"
          "              [--list-suppressions] [--github-annotations]\n"
          "              [--all] [paths...]\n"
          "paths default to 'src' (relative to --root).\n";
}

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".hpp" ||
           ext == ".h" || ext == ".hh";
}

std::string
readFile(const fs::path &p, bool &ok)
{
    std::ifstream in(p, std::ios::binary);
    if (!in) {
        ok = false;
        return "";
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    ok = true;
    return ss.str();
}

/** Repo-relative path with forward slashes (the diagnostic's file). */
std::string
relPath(const fs::path &file, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    std::string s = (ec ? file : rel).generic_string();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "vblint: " << what
                          << " requires an argument\n";
                usage(std::cerr);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root")
            opt.root = need("--root");
        else if (arg == "--json")
            opt.jsonPath = need("--json");
        else if (arg == "--explain")
            opt.explainRule = need("--explain");
        else if (arg == "--github-annotations")
            opt.githubAnnotations = true;
        else if (arg == "--list-suppressions")
            opt.listSuppressions = true;
        else if (arg == "--all")
            opt.showAll = true;
        else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "vblint: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        } else {
            opt.paths.push_back(arg);
        }
    }

    if (!opt.explainRule.empty()) {
        const auto rule = ruleFromName(opt.explainRule);
        if (!rule) {
            std::cerr << "vblint: unknown rule '" << opt.explainRule
                      << "'; rules are:\n";
            for (Rule r : allRules())
                std::cerr << "  " << ruleName(r) << " — "
                          << ruleSummary(r) << "\n";
            return 2;
        }
        std::cout << ruleExplanation(*rule) << "\n";
        return 0;
    }

    if (opt.paths.empty())
        opt.paths.push_back("src");

    const fs::path root(opt.root);
    std::vector<fs::path> files;
    for (const std::string &p : opt.paths) {
        const fs::path full = root / p;
        std::error_code ec;
        if (fs::is_regular_file(full, ec)) {
            files.push_back(full);
            continue;
        }
        if (!fs::is_directory(full, ec)) {
            std::cerr << "vblint: no such file or directory: "
                      << full.string() << "\n";
            return 2;
        }
        for (fs::recursive_directory_iterator it(full, ec), end;
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (it->is_regular_file() && isSourceFile(it->path()))
                files.push_back(it->path());
        }
    }
    // Deterministic scan order regardless of directory enumeration.
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<SourceInput> inputs;
    inputs.reserve(files.size());
    for (const fs::path &f : files) {
        SourceInput in;
        in.path = relPath(f, root);
        bool ok = false;
        in.content = readFile(f, ok);
        if (!ok) {
            std::cerr << "vblint: cannot read " << f.string() << "\n";
            return 2;
        }
        if (f.extension() == ".cpp" || f.extension() == ".cc") {
            for (const char *ext : {".hpp", ".h", ".hh"}) {
                fs::path sib = f;
                sib.replace_extension(ext);
                std::error_code ec;
                if (fs::is_regular_file(sib, ec)) {
                    bool sib_ok = false;
                    in.siblingHeader = readFile(sib, sib_ok);
                    break;
                }
            }
        }
        inputs.push_back(std::move(in));
    }

    const RepoReport report = analyzeAll(inputs);

    if (opt.listSuppressions) {
        printSuppressions(std::cout, report);
        return 0;
    }

    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        if (!out) {
            std::cerr << "vblint: cannot write " << opt.jsonPath << "\n";
            return 2;
        }
        writeJson(out, report, opt.root);
    }

    if (opt.githubAnnotations)
        printGithubAnnotations(std::cout, report);
    printText(std::cout, report, opt.showAll);
    printSummary(std::cout, report);
    return report.activeCount() == 0 ? 0 : 1;
}
