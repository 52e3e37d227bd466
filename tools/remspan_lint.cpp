// remspan_lint — the project-contract static analyzer (docs/STATIC_ANALYSIS.md).
//
// The repo's bit-exact determinism rests on a handful of written contracts
// (strict number parsing via util/strnum only, no exception across the C
// ABI, no iteration-order-dependent containers in build paths, ...). This
// tool makes them machine-checked per source file. It is deliberately
// dependency-free: a small comment/string/raw-string-aware C++ lexer plus
// token-pattern rules, not a compiler frontend — precise enough for this
// codebase, fast enough to run as a ctest on every build.
//
// Usage:
//   remspan_lint --root DIR          walk DIR/{src,include,bench,examples,tools}
//   remspan_lint [--root DIR] FILE.. lint exactly FILE.. (fixture self-tests)
//   remspan_lint --list-rules        print the rule table
//
// Exit codes: 0 tree clean, 1 violations found, 2 usage or I/O error.
//
// Suppressions: a violation on line L is suppressed by a comment on L or
// L-1 of the form `remspan-lint: allow(R6) <justification>` (the directive
// must open the comment). The justification is mandatory; an allow()
// without one is itself a violation (R0). Fixture files may carry
// `remspan-lint: treat-as src/api/remspan_c.cpp` to exercise path-scoped
// rules from outside the real tree.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* id;
  const char* name;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"R0", "annotation-grammar",
     "every 'remspan-lint: allow(...)' must carry a written justification"},
    {"R1", "c-abi-exception-wall",
     "every function in the C ABI files (src/api/remspan_c.cpp, "
     "src/api/remspan_service_c.cpp) opens with a top-level try and "
     "ends in a catch-all: no exception may cross extern \"C\""},
    {"R2", "strict-number-parsing",
     "std::sto*/ato*/strto* are banned outside util/strnum: strict "
     "whole-string parsing via parse_full_int/parse_full_double only"},
    {"R3", "no-exit",
     "std::exit is banned outside the cli_main wrapper (src/util/options.cpp): "
     "error paths throw OptionError or return status codes"},
    {"R4", "no-assert",
     "assert() is banned in library code (src/, include/): use the always-on "
     "REMSPAN_CHECK instead"},
    {"R5", "determinism",
     "rand()/srand(), std::random_device and time-based seeding are banned "
     "everywhere: all randomness flows from an explicitly seeded Rng"},
    {"R6", "unordered-iteration-annotation",
     "iterating an unordered container inside the bit-exact subsystems "
     "(src/{core,graph,geom,dynamic,baseline,sim}) requires an inline "
     "'remspan-lint: allow(R6)' justification stating why iteration order "
     "cannot leak into output"},
    {"R7", "wall-clock-discipline",
     "raw std::chrono clock reads (steady_clock/system_clock/"
     "high_resolution_clock ::now) are banned outside src/obs: wall time "
     "flows through obs::Stopwatch / obs::PhaseSpan, keeping it "
     "out of every deterministic stream"},
};

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tok { kIdent, kNumber, kString, kChar, kPunct };

struct Token {
  Tok kind;
  std::string text;
  int line;
};

/// Comment text per line (joined when several share a line), used for the
/// suppression and treat-as directives. A block comment is attributed to
/// every line it spans.
using CommentMap = std::map<int, std::string>;

struct LexResult {
  std::vector<Token> tokens;
  CommentMap comments;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

LexResult lex(const std::string& src) {
  LexResult out;
  std::size_t i = 0;
  int line = 1;
  const std::size_t n = src.size();

  auto record_comment = [&](int at, const std::string& text) {
    auto& slot = out.comments[at];
    if (!slot.empty()) slot += ' ';
    slot += text;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      record_comment(line, src.substr(start, i - start));
      continue;
    }
    // Block comment (attributed to every spanned line).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int first_line = line;
      i += 2;
      const std::size_t start = i;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      const std::string text = src.substr(start, i - start);
      for (int l = first_line; l <= line; ++l) record_comment(l, text);
      if (i + 1 < n) i += 2;  // consume the closing */
      continue;
    }
    // String literal (and raw strings via the identifier path below).
    if (c == '"') {
      const int at = line;
      ++i;
      std::string text;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < n) {
          text += src[i];
          text += src[i + 1];
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;  // unterminated; keep line counts sane
        text += src[i++];
      }
      if (i < n) ++i;
      out.tokens.push_back({Tok::kString, text, at});
      continue;
    }
    if (c == '\'') {
      const int at = line;
      ++i;
      std::string text;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\' && i + 1 < n) {
          text += src[i];
          text += src[i + 1];
          i += 2;
          continue;
        }
        text += src[i++];
      }
      if (i < n) ++i;
      out.tokens.push_back({Tok::kChar, text, at});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      const int at = line;
      const std::size_t start = i;
      while (i < n) {
        const char d = src[i];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.' || d == '\'') {
          ++i;
          continue;
        }
        // Exponent signs: 1e+9, 0x1p-3.
        if ((d == '+' || d == '-') && i > start &&
            (src[i - 1] == 'e' || src[i - 1] == 'E' || src[i - 1] == 'p' || src[i - 1] == 'P')) {
          ++i;
          continue;
        }
        break;
      }
      out.tokens.push_back({Tok::kNumber, src.substr(start, i - start), at});
      continue;
    }
    if (ident_start(c)) {
      const int at = line;
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      std::string text = src.substr(start, i - start);
      // Raw string literal: R"( ... )", incl. u8R / uR / UR / LR prefixes.
      const bool raw_prefix =
          text == "R" || text == "u8R" || text == "uR" || text == "UR" || text == "LR";
      if (raw_prefix && i < n && src[i] == '"') {
        ++i;
        std::string delim;
        while (i < n && src[i] != '(') delim += src[i++];
        if (i < n) ++i;  // consume (
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = src.find(closer, i);
        std::string body;
        if (end == std::string::npos) {
          body = src.substr(i);
          i = n;
        } else {
          body = src.substr(i, end - i);
          i = end + closer.size();
        }
        line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
        out.tokens.push_back({Tok::kString, body, at});
        continue;
      }
      out.tokens.push_back({Tok::kIdent, std::move(text), at});
      continue;
    }
    // Punctuation. '::' and '->' are kept as single tokens: the rules need
    // to tell qualified names apart and must not mistake the '>' of '->'
    // for a template-argument close.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({Tok::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({Tok::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back({Tok::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Diagnostics and suppressions
// ---------------------------------------------------------------------------

struct Diagnostic {
  std::string path;  // lint path (root-relative, forward slashes)
  int line;
  std::string rule;
  std::string message;
};

struct Allow {
  std::set<std::string> rules;
  bool has_justification;
};

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parses the directive opening one line's comment text, if any. A
/// directive only counts when it is the first thing in the comment — prose
/// merely *mentioning* the marker (docs, this very tool) is inert. Returns
/// the allow directive; fills `treat_as` for a treat-as directive.
std::vector<Allow> parse_directives(const std::string& comment,
                                    std::optional<std::string>* treat_as) {
  const std::string marker = "remspan-lint:";
  const std::string trimmed = trim(comment);
  if (trimmed.rfind(marker, 0) != 0) return {};
  const std::string rest = trim(trimmed.substr(marker.size()));
  if (rest.rfind("treat-as", 0) == 0) {
    std::istringstream is(rest.substr(8));
    std::string path;
    is >> path;
    if (!path.empty() && treat_as != nullptr) *treat_as = path;
    return {};
  }
  if (rest.rfind("allow(", 0) != 0) return {};
  const std::size_t close = rest.find(')');
  if (close == std::string::npos) return {};
  Allow allow;
  const std::string inside = rest.substr(6, close - 6);
  std::size_t item = 0;
  while (item < inside.size()) {
    std::size_t comma = inside.find(',', item);
    if (comma == std::string::npos) comma = inside.size();
    const std::string rule = trim(inside.substr(item, comma - item));
    if (!rule.empty()) allow.rules.insert(rule);
    item = comma + 1;
  }
  std::string justification = trim(rest.substr(close + 1));
  if (!justification.empty() && justification.front() == ':') {
    justification = trim(justification.substr(1));
  }
  allow.has_justification = !justification.empty();
  return {std::move(allow)};
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

class FileLinter {
 public:
  FileLinter(std::string lint_path, const LexResult& lexed, std::vector<Diagnostic>* sink)
      : path_(std::move(lint_path)), toks_(lexed.tokens), comments_(lexed.comments), sink_(sink) {}

  void run() {
    check_annotation_grammar();
    if (path_ == "src/api/remspan_c.cpp" || path_ == "src/api/remspan_service_c.cpp") {
      check_r1();
    }
    if (path_ != "src/util/strnum.cpp") check_r2();
    if (path_ != "src/util/options.cpp") check_r3();
    if (starts_with(path_, "src/") || starts_with(path_, "include/")) check_r4();
    check_r5();
    for (const char* sub : {"src/core/", "src/graph/", "src/geom/", "src/dynamic/",
                            "src/baseline/", "src/sim/"}) {
      if (starts_with(path_, sub)) {
        check_r6();
        break;
      }
    }
    if (!starts_with(path_, "src/obs/")) check_r7();
  }

 private:
  // --- shared helpers ---

  const Token* at(std::size_t i) const { return i < toks_.size() ? &toks_[i] : nullptr; }

  bool is_punct(std::size_t i, const char* p) const {
    const Token* t = at(i);
    return t != nullptr && t->kind == Tok::kPunct && t->text == p;
  }

  bool is_ident(std::size_t i, const char* name) const {
    const Token* t = at(i);
    return t != nullptr && t->kind == Tok::kIdent && t->text == name;
  }

  /// Index just past the brace/paren/bracket group opening at `open`.
  std::size_t skip_group(std::size_t open, const char* open_p, const char* close_p) const {
    int depth = 0;
    std::size_t i = open;
    for (; i < toks_.size(); ++i) {
      if (is_punct(i, open_p)) ++depth;
      if (is_punct(i, close_p) && --depth == 0) return i + 1;
    }
    return i;
  }

  /// A violation of `rule` at `line`, unless suppressed by an allow
  /// directive on the same line or anywhere in the contiguous comment block
  /// immediately above (multi-line justifications are the norm).
  void flag(const char* rule, int line, std::string message) {
    int l = line;
    do {
      const auto it = comments_.find(l);
      if (it == comments_.end()) {
        if (l == line) {  // no trailing comment; still look at the block above
          --l;
          continue;
        }
        break;
      }
      for (const Allow& a : parse_directives(it->second, nullptr)) {
        if (a.rules.count(rule) != 0 && a.has_justification) return;
      }
      --l;
    } while (l > 0);
    sink_->push_back({path_, line, rule, std::move(message)});
  }

  // --- R0: allow() directives need a justification ---

  void check_annotation_grammar() {
    for (const auto& [line, text] : comments_) {
      for (const Allow& a : parse_directives(text, nullptr)) {
        if (!a.has_justification) {
          sink_->push_back({path_, line, "R0",
                            "'remspan-lint: allow(...)' requires a written justification "
                            "after the closing parenthesis"});
        }
      }
    }
  }

  // --- R1: the C ABI exception wall ---

  void check_r1() {
    std::size_t i = 0;
    // Locate `extern "C" {`.
    for (; i + 2 < toks_.size(); ++i) {
      if (is_ident(i, "extern") && toks_[i + 1].kind == Tok::kString &&
          toks_[i + 1].text == "C" && is_punct(i + 2, "{")) {
        break;
      }
    }
    if (i + 2 >= toks_.size()) {
      sink_->push_back({path_, 1, "R1", "no extern \"C\" block found in the C ABI file"});
      return;
    }
    const std::size_t block_end = skip_group(i + 2, "{", "}") - 1;
    std::size_t j = i + 3;
    while (j < block_end) {
      if (is_punct(j, "{")) {  // non-function brace group (none expected)
        j = skip_group(j, "{", "}");
        continue;
      }
      // Function definition: Ident '(' ... ')' [tokens] '{'.
      if (toks_[j].kind == Tok::kIdent && is_punct(j + 1, "(")) {
        const std::string name = toks_[j].text;
        std::size_t k = skip_group(j + 1, "(", ")");
        while (k < block_end && !is_punct(k, "{") && !is_punct(k, ";") &&
               !(toks_[k].kind == Tok::kIdent && is_punct(k + 1, "("))) {
          ++k;
        }
        if (k < block_end && is_punct(k, "{")) {
          check_r1_body(name, k);
          j = skip_group(k, "{", "}");
          continue;
        }
        if (k < block_end && is_punct(k, ";")) {  // prototype
          j = k + 1;
          continue;
        }
        j = k;
        continue;
      }
      ++j;
    }
  }

  /// Body must be exactly: { try { ... } catch (..) {..} ... catch (...) {..} }
  /// with the final catch a catch-all, and nothing outside the try/catch.
  void check_r1_body(const std::string& name, std::size_t open) {
    const int line = toks_[open].line;
    const std::size_t body_end = skip_group(open, "{", "}") - 1;
    std::size_t i = open + 1;
    if (i >= body_end) return;  // empty body: nothing can throw
    if (!is_ident(i, "try") || !is_punct(i + 1, "{")) {
      flag("R1", toks_[i].line,
           "'" + name + "' must open with a top-level try block (statements before the "
           "try can throw across the C ABI — even fail()'s string allocation)");
      return;
    }
    i = skip_group(i + 1, "{", "}");
    bool saw_catch_all = false;
    while (i < body_end && is_ident(i, "catch")) {
      if (!is_punct(i + 1, "(")) break;
      const std::size_t close = skip_group(i + 1, "(", ")");
      // catch (...) lexes as three '.' punct tokens between the parens.
      if (is_punct(i + 2, ".") && is_punct(i + 3, ".") && is_punct(i + 4, ".") &&
          is_punct(i + 5, ")")) {
        saw_catch_all = true;
      }
      if (!is_punct(close, "{")) break;
      i = skip_group(close, "{", "}");
    }
    if (!saw_catch_all) {
      flag("R1", line,
           "'" + name + "' needs a top-level catch-all handler: its catch chain must end "
           "with catch (...)");
      return;
    }
    if (i < body_end) {
      flag("R1", toks_[i].line,
           "'" + name + "' has statements after the top-level try/catch; they can throw "
           "across the C ABI");
    }
  }

  // --- R2: strict number parsing only via util/strnum ---

  void check_r2() {
    static const std::set<std::string> banned = {
        "stoi",    "stol",    "stoll",   "stoul",   "stoull", "stof",    "stod",
        "stold",   "atoi",    "atol",    "atoll",   "atof",   "strtol",  "strtoll",
        "strtoul", "strtoull", "strtof", "strtod",  "strtold"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind == Tok::kIdent && banned.count(toks_[i].text) != 0 &&
          is_punct(i + 1, "(")) {
        flag("R2", toks_[i].line,
             "'" + toks_[i].text + "' accepts partial/garbage-suffixed input; use the "
             "strict parse_full_int/parse_full_double from util/strnum instead");
      }
    }
  }

  // --- R3: no std::exit outside cli_main ---

  void check_r3() {
    static const std::set<std::string> banned = {"exit", "_exit", "_Exit", "quick_exit"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != Tok::kIdent || banned.count(toks_[i].text) == 0 ||
          !is_punct(i + 1, "(")) {
        continue;
      }
      // Member access spelled foo.exit(...) is something else entirely.
      if (i > 0 && (is_punct(i - 1, ".") || is_punct(i - 1, "->"))) continue;
      flag("R3", toks_[i].line,
           "'" + toks_[i].text + "' skips destructors and bypasses the cli_main error "
           "contract; throw OptionError or return a status code instead");
    }
  }

  // --- R4: REMSPAN_CHECK over assert in library code ---

  void check_r4() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (is_ident(i, "assert") && is_punct(i + 1, "(")) {
        if (i > 0 && (is_punct(i - 1, ".") || is_punct(i - 1, "->"))) continue;
        flag("R4", toks_[i].line,
             "assert() vanishes in release builds; library invariants use the always-on "
             "REMSPAN_CHECK");
      }
    }
  }

  // --- R5: determinism (no ambient randomness or time-based seeds) ---

  void check_r5() {
    static const std::set<std::string> banned_calls = {"rand", "srand",   "drand48",
                                                       "lrand48", "srand48", "random"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != Tok::kIdent) continue;
      const std::string& t = toks_[i].text;
      if (t == "random_device") {
        flag("R5", toks_[i].line,
             "std::random_device is nondeterministic; all randomness must flow from an "
             "explicitly seeded Rng");
        continue;
      }
      if (banned_calls.count(t) != 0 && is_punct(i + 1, "(")) {
        if (i > 0 && (is_punct(i - 1, ".") || is_punct(i - 1, "->"))) continue;
        flag("R5", toks_[i].line,
             "'" + t + "' draws from ambient global state; use an explicitly seeded Rng");
        continue;
      }
      // Time-based seeding: time(nullptr) / time(NULL) / time(0).
      if (t == "time" && is_punct(i + 1, "(") &&
          (is_ident(i + 2, "nullptr") || is_ident(i + 2, "NULL") ||
           (at(i + 2) != nullptr && toks_[i + 2].kind == Tok::kNumber &&
            toks_[i + 2].text == "0")) &&
          is_punct(i + 3, ")")) {
        flag("R5", toks_[i].line,
             "time-based seeding makes runs irreproducible; seeds are explicit parameters");
      }
    }
  }

  // --- R6: unordered-container iteration needs a justification ---

  void check_r6() {
    const std::set<std::string> tracked = collect_unordered_vars();
    if (tracked.empty()) return;
    static const std::set<std::string> begin_names = {"begin", "cbegin", "rbegin", "crbegin"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      // Range-for whose range expression is exactly one tracked identifier.
      if (is_ident(i, "for") && is_punct(i + 1, "(")) {
        const std::size_t close = skip_group(i + 1, "(", ")") - 1;
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
          if (is_punct(j, "(")) ++depth;
          if (is_punct(j, ")")) --depth;
          if (depth == 1 && is_punct(j, ":")) {
            if (j + 2 == close && toks_[j + 1].kind == Tok::kIdent &&
                tracked.count(toks_[j + 1].text) != 0) {
              flag("R6", toks_[i].line,
                   "iterates unordered container '" + toks_[j + 1].text +
                       "' — hash-table order is implementation-defined; sort first, or "
                       "annotate 'remspan-lint: allow(R6) <why order cannot leak>'");
            }
            break;
          }
        }
        continue;
      }
      // Explicit iterator walk: tracked.begin() and friends.
      if (toks_[i].kind == Tok::kIdent && tracked.count(toks_[i].text) != 0 &&
          (is_punct(i + 1, ".") || is_punct(i + 1, "->")) && at(i + 2) != nullptr &&
          toks_[i + 2].kind == Tok::kIdent && begin_names.count(toks_[i + 2].text) != 0 &&
          is_punct(i + 3, "(")) {
        flag("R6", toks_[i].line,
             "iterates unordered container '" + toks_[i].text +
                 "' via ." + toks_[i + 2].text +
                 "() — hash-table order is implementation-defined; sort first, or annotate "
                 "'remspan-lint: allow(R6) <why order cannot leak>'");
      }
    }
  }

  // --- R7: wall-clock reads only behind the obs layer ---

  void check_r7() {
    static const std::set<std::string> clocks = {"steady_clock", "system_clock",
                                                 "high_resolution_clock"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != Tok::kIdent || clocks.count(toks_[i].text) == 0) continue;
      if (is_punct(i + 1, "::") && is_ident(i + 2, "now") && is_punct(i + 3, "(")) {
        flag("R7", toks_[i].line,
             "raw '" + toks_[i].text +
                 "::now()' — wall-clock reads go through obs::Stopwatch or obs::PhaseSpan so "
                 "measured time stays separated from every deterministic stream; or "
                 "annotate 'remspan-lint: allow(R7) <why this read is safe>'");
      }
    }
  }

  /// Names declared with an unordered_{map,set,multimap,multiset} type in
  /// this file (locals, members and parameters alike).
  std::set<std::string> collect_unordered_vars() const {
    static const std::set<std::string> unordered = {"unordered_map", "unordered_set",
                                                    "unordered_multimap",
                                                    "unordered_multiset"};
    std::set<std::string> tracked;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != Tok::kIdent || unordered.count(toks_[i].text) == 0) continue;
      std::size_t j = i + 1;
      if (is_punct(j, "<")) {  // skip the template argument list
        int depth = 0;
        for (; j < toks_.size(); ++j) {
          if (is_punct(j, "<")) ++depth;
          if (is_punct(j, ">") && --depth == 0) {
            ++j;
            break;
          }
        }
      }
      // Nested-name uses (::iterator etc.) are types, not declarations.
      if (is_punct(j, "::")) continue;
      while (j < toks_.size() &&
             (is_punct(j, "&") || is_punct(j, "*") || is_ident(j, "const"))) {
        ++j;
      }
      if (j < toks_.size() && toks_[j].kind == Tok::kIdent) tracked.insert(toks_[j].text);
    }
    return tracked;
  }

  const std::string path_;
  const std::vector<Token>& toks_;
  const CommentMap& comments_;
  std::vector<Diagnostic>* sink_;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

const char* rule_name(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return r.name;
  }
  return "?";
}

bool has_source_extension(const fs::path& p) {
  static const std::set<std::string> exts = {".c", ".cc", ".cpp", ".h", ".hh", ".hpp"};
  return exts.count(p.extension().string()) != 0;
}

/// The lint path decides which rules apply: root-relative with forward
/// slashes, overridable by a treat-as directive (fixture self-tests).
std::string lint_path_for(const fs::path& file, const fs::path& root,
                          const std::optional<std::string>& treat_as) {
  if (treat_as.has_value()) return *treat_as;
  std::error_code ec;
  const fs::path rel = fs::relative(file, root, ec);
  fs::path use = (!ec && !rel.empty() && rel.native()[0] != '.') ? rel : file.filename();
  return use.generic_string();
}

int lint_file(const fs::path& file, const fs::path& root, std::vector<Diagnostic>* sink) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::cerr << "remspan_lint: cannot read " << file.string() << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const LexResult lexed = lex(buffer.str());

  std::optional<std::string> treat_as;
  for (const auto& [line, text] : lexed.comments) {
    parse_directives(text, &treat_as);
  }
  FileLinter(lint_path_for(file, root, treat_as), lexed, sink).run();
  return 0;
}

int usage() {
  std::cerr << "usage: remspan_lint --root DIR [FILE...] | remspan_lint --list-rules\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<fs::path> files;
  bool explicit_files = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::cout << r.id << "  " << r.name << "\n    " << r.summary << "\n";
      }
      return 0;
    }
    if (arg == "--root") {
      if (i + 1 >= argc) return usage();
      root = argv[++i];
      continue;
    }
    if (!arg.empty() && arg[0] == '-') return usage();
    files.emplace_back(arg);
    explicit_files = true;
  }

  if (!explicit_files) {
    if (!fs::is_directory(root)) {
      std::cerr << "remspan_lint: --root " << root.string() << " is not a directory\n";
      return 2;
    }
    for (const char* top : {"src", "include", "bench", "examples", "tools"}) {
      const fs::path dir = root / top;
      if (!fs::is_directory(dir)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() && has_source_extension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    }
    std::sort(files.begin(), files.end());
  }

  std::vector<Diagnostic> diagnostics;
  for (const fs::path& file : files) {
    const int rc = lint_file(file, root, &diagnostics);
    if (rc != 0) return rc;
  }

  for (const Diagnostic& d : diagnostics) {
    std::cout << d.path << ":" << d.line << ": [" << d.rule << " " << rule_name(d.rule)
              << "] " << d.message << "\n";
  }
  std::set<std::string> dirty_files;
  for (const Diagnostic& d : diagnostics) dirty_files.insert(d.path);
  std::cout << "remspan_lint: " << diagnostics.size() << " violation(s) in "
            << dirty_files.size() << " file(s), " << files.size() << " file(s) scanned\n";
  return diagnostics.empty() ? 0 : 1;
}
