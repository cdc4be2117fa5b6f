// The four rules migrated from the project's original grep/awk lint
// script. The token-level reimplementations close the gaps the line regexes
// had (string and comment false positives, declarations split across lines)
// while keeping the same rule names, so existing `// chk-lint: allow(...)`
// comments keep working unchanged.

#include <set>

#include "rule.h"
#include "rules.h"

namespace marlin {
namespace analyze {

namespace {

/// no-raw-thread: std::thread / std::jthread / std::async may only appear in
/// the execution substrates (Config::raw_thread_files). Everything else must
/// go through the Dispatcher seam so the deterministic scheduler can control
/// it. std::thread::id and std::this_thread are fine.
class NoRawThreadRule : public Rule {
 public:
  std::string Name() const override { return "no-raw-thread"; }
  std::string Description() const override {
    return "raw std::thread/jthread/async only in the execution substrates; "
           "everything else uses the Dispatcher seam";
  }

  void Run(const Project& project, std::vector<Finding>* findings) const override {
    static const std::set<std::string> kThreadish = {"thread", "jthread",
                                                     "async"};
    for (const SourceFile& file : project.files()) {
      if (file.module.empty()) continue;
      if (project.config().raw_thread_files.count(file.rel)) continue;
      const std::vector<Token>& toks = file.tokens;
      for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!toks[i].IsIdent("std") || !toks[i + 1].IsPunct("::")) continue;
        if (toks[i + 2].kind != TokKind::kIdent ||
            !kThreadish.count(toks[i + 2].text)) {
          continue;
        }
        // std::thread::id (and other nested names) are not thread creation.
        if (i + 3 < toks.size() && toks[i + 3].IsPunct("::")) continue;
        findings->push_back(
            {Name(), file.rel, toks[i + 2].line,
             "raw std::" + toks[i + 2].text +
                 " outside the execution substrates — use the Dispatcher "
                 "seam (or add the file to Config::raw_thread_files if it is "
                 "a new substrate)"});
      }
    }
  }
};

/// no-naked-new: no new/delete expressions in src/; use
/// make_unique/make_shared. Intentional leaky singletons carry
/// `// chk-lint: allow(naked-new)`.
class NoNakedNewRule : public Rule {
 public:
  std::string Name() const override { return "naked-new"; }
  std::string Description() const override {
    return "no new/delete expressions in src/ — use make_unique/make_shared "
           "(leaky singletons: chk-lint allow)";
  }

  void Run(const Project& project, std::vector<Finding>* findings) const override {
    for (const SourceFile& file : project.files()) {
      if (file.module.empty()) continue;
      const std::vector<Token>& toks = file.tokens;
      for (size_t i = 0; i < toks.size(); ++i) {
        const bool is_new = toks[i].IsIdent("new");
        const bool is_delete = toks[i].IsIdent("delete");
        if (!is_new && !is_delete) continue;
        // `operator new` / `operator delete` declarations are not
        // expressions; `= delete` is a deleted function.
        if (i > 0 && (toks[i - 1].IsIdent("operator"))) continue;
        if (is_delete && i > 0 && toks[i - 1].IsPunct("=")) continue;
        if (i + 1 >= toks.size()) continue;
        const Token& next = toks[i + 1];
        const bool new_expr = is_new && next.kind == TokKind::kIdent;
        const bool delete_expr =
            is_delete && (next.kind == TokKind::kIdent || next.IsPunct("*") ||
                          next.IsPunct("[") || next.IsPunct("(") ||
                          next.IsPunct("::"));
        if (!new_expr && !delete_expr) continue;
        findings->push_back(
            {Name(), file.rel, toks[i].line,
             std::string("naked '") + (is_new ? "new" : "delete") +
                 "' — ownership must be explicit: use "
                 "make_unique/make_shared"});
      }
    }
  }
};

/// no-plain-counter: tests may not use non-atomic static integer counters (a
/// classic hidden data race under the multi-threaded dispatcher).
class NoPlainCounterRule : public Rule {
 public:
  std::string Name() const override { return "no-plain-counter"; }
  std::string Description() const override {
    return "tests may not use non-atomic static integer counters — use "
           "std::atomic";
  }

  void Run(const Project& project, std::vector<Finding>* findings) const override {
    static const std::set<std::string> kIntTypes = {
        "int",     "long",     "short",    "unsigned", "size_t",
        "ssize_t", "int32_t",  "uint32_t", "int64_t",  "uint64_t"};
    for (const SourceFile& file : project.files()) {
      if (!file.in_tests) continue;
      const std::vector<Token>& toks = file.tokens;
      for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].IsIdent("static")) continue;
        const Token& next = toks[i + 1];
        // `static const/constexpr/atomic<...>` and class types are fine; the
        // race is specifically a mutable plain integer.
        if (next.kind != TokKind::kIdent || !kIntTypes.count(next.text)) {
          continue;
        }
        // Distinguish a variable from a function returning an integer: scan
        // to the declarator's end; '(' before ';'/'=' means a function, and
        // a cv qualifier anywhere makes the variable benign.
        bool is_variable = false;
        bool is_const = false;
        for (size_t j = i + 2; j < toks.size(); ++j) {
          if (toks[j].IsIdent("const") || toks[j].IsIdent("constexpr")) {
            is_const = true;
          }
          if (toks[j].IsPunct("(") || toks[j].IsPunct("{")) break;
          if (toks[j].IsPunct(";") || toks[j].IsPunct("=")) {
            is_variable = true;
            break;
          }
        }
        if (!is_variable || is_const) continue;
        findings->push_back(
            {Name(), file.rel, toks[i].line,
             "non-atomic static " + next.text +
                 " counter in a test — racy under the multi-threaded "
                 "dispatcher; use std::atomic"});
      }
    }
  }
};

/// no-raw-socket: ::socket() only in the networking substrates
/// (Config::raw_socket_modules); everything else goes through the
/// Transport / HttpServer seams so tests can swap in in-process fakes.
class NoRawSocketRule : public Rule {
 public:
  std::string Name() const override { return "no-raw-socket"; }
  std::string Description() const override {
    return "::socket() only in the networking substrates (cluster transport, "
           "middleware HTTP server)";
  }

  void Run(const Project& project, std::vector<Finding>* findings) const override {
    for (const SourceFile& file : project.files()) {
      if (file.module.empty()) continue;
      if (project.config().raw_socket_modules.count(file.module)) continue;
      const std::vector<Token>& toks = file.tokens;
      for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].IsPunct("::") && toks[i + 1].IsIdent("socket") &&
            toks[i + 2].IsPunct("(")) {
          findings->push_back(
              {Name(), file.rel, toks[i + 1].line,
               "raw ::socket() outside the networking substrates — go "
               "through the Transport / HttpServer seams"});
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeNoRawThreadRule() {
  return std::make_unique<NoRawThreadRule>();
}
std::unique_ptr<Rule> MakeNoNakedNewRule() {
  return std::make_unique<NoNakedNewRule>();
}
std::unique_ptr<Rule> MakeNoPlainCounterRule() {
  return std::make_unique<NoPlainCounterRule>();
}
std::unique_ptr<Rule> MakeNoRawSocketRule() {
  return std::make_unique<NoRawSocketRule>();
}

std::vector<std::unique_ptr<Rule>> BuiltinRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(MakeLayeringRule());
  rules.push_back(MakeActorBlockingRule());
  rules.push_back(MakeFaultPointRule());
  rules.push_back(MakeMessageHygieneRule());
  rules.push_back(MakeMetricNameRule());
  rules.push_back(MakeRawClockRule());
  rules.push_back(MakeNoRawThreadRule());
  rules.push_back(MakeNoNakedNewRule());
  rules.push_back(MakeNoPlainCounterRule());
  rules.push_back(MakeNoRawSocketRule());
  return rules;
}

}  // namespace analyze
}  // namespace marlin
