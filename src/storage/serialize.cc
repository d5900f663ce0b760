#include "storage/serialize.h"

#include <algorithm>
#include <memory>
#include <sstream>


namespace regal {

namespace {

constexpr char kMagic[] = "REGAL1";

// Upper bound on the bytes left in a seekable stream, or -1 when the stream
// cannot tell. Used to reject absurd declared counts *before* allocating:
// a hand-edited "name r 999999999" header must fail with InvalidArgument,
// not OOM the process reserving gigabytes it can never read.
std::streamoff RemainingBytes(std::istream& in) {
  const std::streamoff current = in.tellg();
  if (current < 0) return -1;
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(current);
  if (end < 0 || end < current) return -1;
  return end - current;
}

// Fallback reserve cap when the stream is not seekable; vectors still grow
// to any genuine size, they just do it incrementally.
constexpr size_t kBlindReserveCap = 1 << 20;

// The smallest serialized region is "0 0" plus a separator: 4 bytes per
// record (the final record may omit its terminator, hence the +1).
bool RegionCountPlausible(size_t count, std::streamoff remaining) {
  if (remaining < 0) return true;  // Unknown size: parse will hit EOF.
  return count <= (static_cast<uint64_t>(remaining) + 1) / 4;
}

// Consumes one line terminator after a fixed-size payload or a formatted
// read: "\n", "\r\n" or a bare "\r" (and nothing at EOF). A plain
// in.ignore() would leave the '\n' of a CRLF pair in the stream.
void SkipLineBreak(std::istream& in) {
  if (in.peek() == '\r') in.get();
  if (in.peek() == '\n') in.get();
}

// Line reader tolerating CRLF endings: a trailing '\r' left by getline is
// stripped before the caller parses the line.
bool GetLine(std::istream& in, std::string* line) {
  if (!std::getline(in, *line)) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

Result<RegionSet> ReadRegions(std::istream& in, size_t count) {
  if (!RegionCountPlausible(count, RemainingBytes(in))) {
    return Status::InvalidArgument(
        "declared region count " + std::to_string(count) +
        " exceeds remaining input");
  }
  std::vector<Region> regions;
  regions.reserve(std::min(count, kBlindReserveCap));
  for (size_t i = 0; i < count; ++i) {
    Region r;
    if (!(in >> r.left >> r.right)) {
      return Status::InvalidArgument("truncated region list");
    }
    if (r.left > r.right) {
      return Status::InvalidArgument("region with left > right");
    }
    regions.push_back(r);
  }
  SkipLineBreak(in);
  return RegionSet::FromUnsorted(std::move(regions));
}

}  // namespace

Result<Instance> LoadInstance(std::istream& in) {
  std::string line;
  if (!GetLine(in, &line) || line != kMagic) {
    return Status::InvalidArgument("bad magic: expected " +
                                   std::string(kMagic));
  }
  Instance instance;
  bool saw_end = false;
  std::shared_ptr<Text> text;
  while (GetLine(in, &line)) {
    if (line.empty()) continue;
    std::istringstream header(line);
    std::string keyword;
    header >> keyword;
    if (keyword == "end") {
      saw_end = true;
      break;
    }
    if (keyword == "text") {
      size_t size = 0;
      if (!(header >> size)) {
        return Status::InvalidArgument("malformed text header");
      }
      if (std::streamoff remaining = RemainingBytes(in);
          remaining >= 0 && size > static_cast<uint64_t>(remaining)) {
        return Status::InvalidArgument(
            "declared text size " + std::to_string(size) +
            " exceeds remaining input");
      }
      std::string content(size, '\0');
      in.read(content.data(), static_cast<std::streamsize>(size));
      if (in.gcount() != static_cast<std::streamsize>(size)) {
        return Status::InvalidArgument("truncated text payload");
      }
      SkipLineBreak(in);
      text = std::make_shared<Text>(std::move(content));
      continue;
    }
    if (keyword == "name" || keyword == "pattern") {
      std::string name;
      size_t count = 0;
      if (!(header >> name >> count)) {
        return Status::InvalidArgument("malformed '" + keyword + "' header");
      }
      REGAL_ASSIGN_OR_RETURN(RegionSet set, ReadRegions(in, count));
      if (keyword == "name") {
        REGAL_RETURN_NOT_OK(instance.AddRegionSet(name, std::move(set)));
      } else {
        REGAL_ASSIGN_OR_RETURN(Pattern p, Pattern::FromCacheKey(name));
        instance.SetSyntheticPattern(p, std::move(set));
      }
      continue;
    }
    if (keyword == "patternb") {
      size_t key_size = 0;
      size_t count = 0;
      if (!(header >> key_size >> count)) {
        return Status::InvalidArgument("malformed 'patternb' header");
      }
      if (std::streamoff remaining = RemainingBytes(in);
          remaining >= 0 && key_size > static_cast<uint64_t>(remaining)) {
        return Status::InvalidArgument(
            "declared key size " + std::to_string(key_size) +
            " exceeds remaining input");
      }
      std::string key(key_size, '\0');
      in.read(key.data(), static_cast<std::streamsize>(key_size));
      if (in.gcount() != static_cast<std::streamsize>(key_size)) {
        return Status::InvalidArgument("truncated 'patternb' key");
      }
      SkipLineBreak(in);
      REGAL_ASSIGN_OR_RETURN(Pattern p, Pattern::FromCacheKey(key));
      REGAL_ASSIGN_OR_RETURN(RegionSet set, ReadRegions(in, count));
      instance.SetSyntheticPattern(p, std::move(set));
      continue;
    }
    return Status::InvalidArgument("unknown record '" + keyword + "'");
  }
  if (!saw_end) {
    return Status::InvalidArgument("missing 'end' record");
  }
  if (text != nullptr) instance.BindText(std::move(text));
  return instance;
}

}  // namespace regal
