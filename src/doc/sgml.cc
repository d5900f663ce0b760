#include "doc/sgml.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string_view>
#include <vector>

#include "exec/thread_pool.h"
#include "index/word_index.h"
#include "safety/failpoint.h"
#include "util/interner.h"
#include "util/random.h"
#include "util/stringutil.h"

namespace regal {

namespace {

// Scans the tags of `source`. Tag names get dense ids; each name's regions
// are laid out in order of their open tags, which is document order, and
// the close tag fills in the right end.
Status ScanTags(const std::string& source, Interner* names,
                std::vector<std::vector<Region>>* sets) {
  struct OpenTag {
    int32_t name;
    size_t slot;  // Index of the region in (*sets)[name].
  };
  std::vector<OpenTag> stack;
  const char* const begin = source.data();
  const char* const end = begin + source.size();
  for (const char* open = begin; open != end; ++open) {
    open = static_cast<const char*>(
        std::memchr(open, '<', static_cast<size_t>(end - open)));
    if (open == nullptr) break;
    const auto at = static_cast<Offset>(open - begin);
    const char* close = static_cast<const char*>(
        std::memchr(open, '>', static_cast<size_t>(end - open)));
    if (close == nullptr) {
      return Status::InvalidArgument("unterminated tag at offset " +
                                     std::to_string(at));
    }
    const bool is_end = open + 1 < end && open[1] == '/';
    const char* const name_start = open + (is_end ? 2 : 1);
    const char* name_end = name_start;
    while (name_end < close && IsIdentChar(*name_end)) ++name_end;
    const std::string_view name(name_start,
                                static_cast<size_t>(name_end - name_start));
    if (name.empty()) {
      return Status::InvalidArgument("tag with empty name at offset " +
                                     std::to_string(at));
    }
    if (is_end) {
      if (stack.empty() || names->key(stack.back().name) != name) {
        return Status::InvalidArgument("mismatched close tag </" +
                                       std::string(name) + "> at offset " +
                                       std::to_string(at));
      }
      const OpenTag& top = stack.back();
      (*sets)[static_cast<size_t>(top.name)][top.slot].right =
          static_cast<Offset>(close - begin);
      stack.pop_back();
    } else {
      const int32_t id = names->Intern(name);
      if (static_cast<size_t>(id) == sets->size()) sets->emplace_back();
      std::vector<Region>& regions = (*sets)[static_cast<size_t>(id)];
      stack.push_back(OpenTag{id, regions.size()});
      regions.push_back(Region{at, at});
    }
    open = close;
  }
  if (!stack.empty()) {
    return Status::InvalidArgument("unclosed tag <" +
                                   std::string(names->key(stack.back().name)) +
                                   ">");
  }
  return Status::OK();
}

}  // namespace

Result<Instance> ParseSgml(const std::string& source) {
  // The word index reads only the text, so the tag scan runs beside it as a
  // pool task. This thread builds the index, the longer job, whose chunks
  // the other lanes join as they wake; a woken worker can start
  // milliseconds late, which the short scan absorbs (Wait() runs it here if
  // no worker took it). The task borrows `names`, `sets` and `scanned`
  // until Wait().
  Interner names;
  std::vector<std::vector<Region>> sets;
  Status scanned;
  exec::ThreadPool::TaskHandle scan = exec::ThreadPool::Default().Submit(
      [&] { scanned = ScanTags(source, &names, &sets); });
  auto text = std::make_shared<const Text>(source);
  auto index = std::make_shared<const SuffixArrayWordIndex>(text.get());
  scan.Wait();
  REGAL_RETURN_NOT_OK(scanned);
  REGAL_RETURN_NOT_OK(safety::CheckFailpoint("index.build"));
  // Names are defined in sorted order, so names() and the stamps do not
  // depend on which tag came first.
  std::vector<int32_t> order(sets.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return names.key(a) < names.key(b);
  });
  Instance instance;
  for (int32_t id : order) {
    instance.SetRegionSet(
        std::string(names.key(id)),
        RegionSet::FromSortedUnique(std::move(sets[static_cast<size_t>(id)])));
  }
  instance.BindText(std::move(text), std::move(index));
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
