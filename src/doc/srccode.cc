#include "doc/srccode.h"

#include <map>
#include <memory>
#include <vector>

#include "safety/failpoint.h"
#include "text/tokenizer.h"
#include "util/stringutil.h"

namespace regal {

Digraph SourceCodeRig() {
  Digraph g;
  g.AddEdge("Program", "Prog_header");
  g.AddEdge("Program", "Prog_body");
  g.AddEdge("Prog_header", "Name");
  g.AddEdge("Prog_body", "Var");
  g.AddEdge("Prog_body", "Proc");
  g.AddEdge("Proc", "Proc_header");
  g.AddEdge("Proc", "Proc_body");
  g.AddEdge("Proc_header", "Name");
  g.AddEdge("Proc_body", "Var");
  g.AddEdge("Proc_body", "Proc");
  return g;
}

namespace {

class ProgramGenerator {
 public:
  explicit ProgramGenerator(const ProgramGeneratorOptions& options)
      : options_(options), rng_(options.seed) {}

  std::string Generate() {
    out_ = "program Main;\n";
    procs_left_ = options_.num_procs;
    EmitScope(1);
    out_ += "begin call_something end.\n";
    return out_;
  }

 private:
  std::string Indent(int depth) { return std::string(static_cast<size_t>(depth) * 2, ' '); }

  std::string RandomVar() {
    return "v" + std::to_string(rng_.Below(
                     static_cast<uint64_t>(std::max(1, options_.vocabulary))));
  }

  // Emits var declarations and nested procs for one scope.
  void EmitScope(int depth) {
    int vars = static_cast<int>(
        rng_.Below(static_cast<uint64_t>(options_.max_vars_per_scope + 1)));
    for (int i = 0; i < vars; ++i) {
      out_ += Indent(depth) + "var " + RandomVar() + ";\n";
    }
    while (procs_left_ > 0) {
      // Spend the proc budget: nest deeper with decreasing probability.
      if (depth > 1 && rng_.Chance(0.5)) break;
      --procs_left_;
      std::string name = "p" + std::to_string(proc_counter_++);
      out_ += Indent(depth) + "proc " + name + ";\n";
      if (depth < options_.max_nesting) {
        EmitScope(depth + 1);
      } else {
        int inner_vars = static_cast<int>(rng_.Below(
            static_cast<uint64_t>(options_.max_vars_per_scope + 1)));
        for (int i = 0; i < inner_vars; ++i) {
          out_ += Indent(depth + 1) + "var " + RandomVar() + ";\n";
        }
      }
      out_ += Indent(depth) + "begin write " + RandomVar() + " end;\n";
    }
  }

  ProgramGeneratorOptions options_;
  Rng rng_;
  std::string out_;
  int procs_left_ = 0;
  int proc_counter_ = 0;
};

// Token with byte extent, produced by the parser's scanner.
struct SrcToken {
  std::string text;
  Offset left;
  Offset right;  // Inclusive.
};

class ProgramParser {
 public:
  explicit ProgramParser(const std::string& source) : source_(source) {
    for (const Token& t : Tokenize(source)) {
      tokens_.push_back(SrcToken{
          std::string(TokenText(source, t)), t.left, t.right});
    }
    // Also scan single-char punctuation (';' and '.') as tokens, merged in
    // offset order, so the parser can anchor region boundaries.
    std::vector<SrcToken> merged;
    size_t w = 0;
    for (size_t i = 0; i < source.size(); ++i) {
      char c = source[i];
      while (w < tokens_.size() &&
             tokens_[w].left == static_cast<Offset>(i)) {
        merged.push_back(tokens_[w]);
        i = static_cast<size_t>(tokens_[w].right);
        ++w;
        c = 0;
        break;
      }
      if (c == ';' || c == '.') {
        merged.push_back(SrcToken{std::string(1, c), static_cast<Offset>(i),
                                  static_cast<Offset>(i)});
      }
    }
    tokens_ = std::move(merged);
  }

  Result<Instance> Parse() {
    REGAL_RETURN_NOT_OK(ParseProgramRule());
    REGAL_RETURN_NOT_OK(safety::CheckFailpoint("index.build"));
    Instance instance;
    for (auto& [name, regions] : sets_) {
      instance.SetRegionSet(name, RegionSet::FromUnsorted(std::move(regions)));
    }
    for (const char* name : {"Program", "Prog_header", "Prog_body", "Proc",
                             "Proc_header", "Proc_body", "Var", "Name"}) {
      if (!instance.Has(name)) instance.SetRegionSet(name, RegionSet());
    }
    instance.BindText(std::make_shared<Text>(source_));
    return instance;
  }

 private:
  bool AtEnd() const { return pos_ >= tokens_.size(); }
  const SrcToken& Peek() const { return tokens_[pos_]; }

  Status Fail(const std::string& message) {
    std::string at = AtEnd() ? "<eof>" : tokens_[pos_].text;
    return Status::InvalidArgument(message + " (at '" + at + "', token " +
                                   std::to_string(pos_) + ")");
  }

  Status Expect(const std::string& text) {
    if (AtEnd() || Peek().text != text) {
      return Fail("expected '" + text + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Result<SrcToken> ExpectIdent() {
    if (AtEnd() || !IsIdentChar(Peek().text[0])) {
      return Fail("expected an identifier");
    }
    return tokens_[pos_++];
  }

  void Emit(const std::string& name, Offset left, Offset right) {
    sets_[name].push_back(Region{left, right});
  }

  // Program := "program" Name ";" Block "."
  Status ParseProgramRule() {
    if (AtEnd()) return Fail("empty program");
    Offset prog_left = Peek().left;
    Offset header_left = Peek().left;
    REGAL_RETURN_NOT_OK(Expect("program"));
    REGAL_ASSIGN_OR_RETURN(SrcToken name, ExpectIdent());
    Emit("Name", name.left, name.right);
    Emit("Prog_header", header_left, name.right);
    REGAL_RETURN_NOT_OK(Expect(";"));
    Offset body_right = 0;
    REGAL_ASSIGN_OR_RETURN(Offset body_left, ParseBlock(&body_right));
    Emit("Prog_body", body_left, body_right);
    if (AtEnd() || Peek().text != ".") return Fail("expected '.'");
    Offset dot_right = Peek().right;
    ++pos_;
    Emit("Program", prog_left, dot_right);
    if (!AtEnd()) return Fail("trailing input after final '.'");
    return Status::OK();
  }

  // Block := { VarDecl | ProcDecl } "begin" Stmts "end"
  // Returns the left offset; writes the right offset (of "end") via out.
  Result<Offset> ParseBlock(Offset* right_out) {
    if (AtEnd()) return Fail("expected a block");
    Offset left = Peek().left;
    while (!AtEnd()) {
      if (Peek().text == "var") {
        Offset var_left = Peek().left;
        ++pos_;
        REGAL_ASSIGN_OR_RETURN(SrcToken name, ExpectIdent());
        Emit("Var", var_left, name.right);
        REGAL_RETURN_NOT_OK(Expect(";"));
      } else if (Peek().text == "proc") {
        REGAL_RETURN_NOT_OK(ParseProc());
      } else {
        break;
      }
    }
    REGAL_RETURN_NOT_OK(Expect("begin"));
    REGAL_RETURN_NOT_OK(SkipStatements(right_out));
    return left;
  }

  // Proc := "proc" Name ";" Block ";"
  Status ParseProc() {
    Offset proc_left = Peek().left;
    Offset header_left = Peek().left;
    REGAL_RETURN_NOT_OK(Expect("proc"));
    REGAL_ASSIGN_OR_RETURN(SrcToken name, ExpectIdent());
    Emit("Name", name.left, name.right);
    Emit("Proc_header", header_left, name.right);
    REGAL_RETURN_NOT_OK(Expect(";"));
    Offset body_right = 0;
    REGAL_ASSIGN_OR_RETURN(Offset body_left, ParseBlock(&body_right));
    Emit("Proc_body", body_left, body_right);
    REGAL_RETURN_NOT_OK(Expect(";"));
    Emit("Proc", proc_left, body_right);
    return Status::OK();
  }

  // Consumes statement tokens until the matching "end" (begin/end nest).
  // Writes the inclusive right offset of that "end".
  Status SkipStatements(Offset* right_out) {
    int depth = 1;
    while (!AtEnd()) {
      if (Peek().text == "begin") ++depth;
      if (Peek().text == "end") {
        if (--depth == 0) {
          *right_out = Peek().right;
          ++pos_;
          return Status::OK();
        }
      }
      ++pos_;
    }
    return Fail("unterminated block: missing 'end'");
  }

  const std::string& source_;
  std::vector<SrcToken> tokens_;
  size_t pos_ = 0;
  std::map<std::string, std::vector<Region>> sets_;
};

}  // namespace

std::string GenerateProgramSource(const ProgramGeneratorOptions& options) {
  return ProgramGenerator(options).Generate();
}

Result<Instance> ParseProgram(const std::string& source) {
  return ProgramParser(source).Parse();
}

}  // namespace regal
