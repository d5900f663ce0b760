#include "doc/sgml.h"

#include <map>
#include <memory>
#include <vector>

#include "safety/failpoint.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {

Result<Instance> ParseSgml(const std::string& source) {
  struct OpenTag {
    std::string name;
    Offset left;
  };
  std::vector<OpenTag> stack;
  std::map<std::string, std::vector<Region>> sets;
  for (size_t i = 0; i < source.size(); ++i) {
    if (source[i] != '<') continue;
    size_t close = source.find('>', i);
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated tag at offset " +
                                     std::to_string(i));
    }
    bool is_end = i + 1 < source.size() && source[i + 1] == '/';
    size_t name_start = i + (is_end ? 2 : 1);
    size_t name_end = name_start;
    while (name_end < close && IsIdentChar(source[name_end])) ++name_end;
    std::string name = source.substr(name_start, name_end - name_start);
    if (name.empty()) {
      return Status::InvalidArgument("tag with empty name at offset " +
                                     std::to_string(i));
    }
    if (is_end) {
      if (stack.empty() || stack.back().name != name) {
        return Status::InvalidArgument(
            "mismatched close tag </" + name + "> at offset " +
            std::to_string(i));
      }
      sets[name].push_back(
          Region{stack.back().left, static_cast<Offset>(close)});
      stack.pop_back();
    } else {
      stack.push_back(OpenTag{name, static_cast<Offset>(i)});
    }
    i = close;
  }
  if (!stack.empty()) {
    return Status::InvalidArgument("unclosed tag <" + stack.back().name + ">");
  }
  REGAL_RETURN_NOT_OK(safety::CheckFailpoint("index.build"));
  Instance instance;
  for (auto& [name, regions] : sets) {
    instance.SetRegionSet(name, RegionSet::FromUnsorted(std::move(regions)));
  }
  instance.BindText(std::make_shared<Text>(source));
  return instance;
}

std::string GeneratePlaySource(const PlayGeneratorOptions& options) {
  Rng rng(options.seed);
  auto word = [&] {
    return "word" + std::to_string(rng.Below(static_cast<uint64_t>(
                        std::max(1, options.vocabulary))));
  };
  std::string out = "<play>\n<title>The Synthetic Tragedy</title>\n";
  const char* speakers[] = {"HAMLET", "OPHELIA", "GERTRUDE", "CLAUDIUS",
                            "HORATIO", "LAERTES"};
  for (int a = 1; a <= options.acts; ++a) {
    out += "<act>\n";
    for (int s = 1; s <= options.scenes_per_act; ++s) {
      out += "<scene>\n";
      for (int sp = 0; sp < options.speeches_per_scene; ++sp) {
        out += "<speech>\n<speaker>";
        out += speakers[rng.Below(6)];
        out += "</speaker>\n";
        for (int l = 0; l < options.lines_per_speech; ++l) {
          out += "<line>";
          int words = static_cast<int>(4 + rng.Below(5));
          for (int w = 0; w < words; ++w) {
            if (w > 0) out += ' ';
            out += word();
          }
          out += "</line>\n";
        }
        out += "</speech>\n";
      }
      out += "</scene>\n";
    }
    out += "</act>\n";
  }
  out += "</play>\n";
  return out;
}

Digraph PlayRig() {
  Digraph g;
  g.AddEdge("play", "title");
  g.AddEdge("play", "act");
  g.AddEdge("act", "scene");
  g.AddEdge("scene", "speech");
  g.AddEdge("speech", "speaker");
  g.AddEdge("speech", "line");
  return g;
}

}  // namespace regal
