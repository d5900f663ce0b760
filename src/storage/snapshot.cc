#include "storage/snapshot.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "index/word_index.h"
#include "obs/metrics.h"
#include "storage/checksum.h"
#include "storage/compress.h"
#include "storage/serialize.h"
#include "storage/wire.h"
#include "util/timer.h"

namespace regal {
namespace storage {

namespace {

// "REGAL2\0" + format version 1.
constexpr char kMagic[8] = {'R', 'E', 'G', 'A', 'L', '2', '\0', '\x01'};
constexpr size_t kMagicSize = sizeof(kMagic);

constexpr uint8_t kTagText = 0x01;
constexpr uint8_t kTagRegions = 0x02;
constexpr uint8_t kTagPattern = 0x03;
constexpr uint8_t kTagFooter = 0x7F;

// tag (1) + payload_len (8); the trailing CRC adds 4 more after the payload.
constexpr size_t kSectionHeader = 9;
constexpr size_t kSectionCrc = 4;
constexpr size_t kFooterPayload = 8 + 4;  // body_section_count + file crc.

// Frames `payload` as a section: tag, length, payload, CRC over all three.
void AppendSection(std::string* out, uint8_t tag, std::string_view payload) {
  const size_t start = out->size();
  out->push_back(static_cast<char>(tag));
  PutU64(out, payload.size());
  out->append(payload.data(), payload.size());
  PutU32(out, Crc32c(std::string_view(out->data() + start,
                                      out->size() - start)));
}

Status DataLossCounted(const char* kind, std::string message) {
  obs::Registry::Default()
      .GetCounter("regal_storage_checksum_failures_total", {{"kind", kind}})
      ->Increment();
  return Status::DataLoss(std::move(message));
}

// Parses a regions/pattern payload: u32 label_len, label, u64 count, then
// count x (zigzag-varint left-delta, zigzag-varint width). The count is
// validated against the payload size *before* the reserve — and the payload
// itself already passed its section CRC — so no allocation is ever driven
// by unverified bytes.
Status ParseLabeledRegions(std::string_view payload, std::string* label,
                           std::vector<Region>* regions) {
  if (payload.size() < 4) {
    return Status::DataLoss("corrupt snapshot: section payload too short");
  }
  const uint64_t label_len = GetU32(payload.data());
  if (payload.size() < 4 + label_len + 8) {
    return Status::DataLoss("corrupt snapshot: label overruns section");
  }
  label->assign(payload.data() + 4, label_len);
  const uint64_t count = GetU64(payload.data() + 4 + label_len);
  const char* p = payload.data() + 4 + label_len + 8;
  const char* end = payload.data() + payload.size();
  // Two varints of at least one byte each per region.
  if (count > static_cast<uint64_t>(end - p) / 2) {
    return Status::DataLoss(
        "corrupt snapshot: region count disagrees with section size");
  }
  regions->reserve(count);
  int64_t prev_left = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t left_delta = 0;
    uint64_t width = 0;
    if (!GetVarint(&p, end, &left_delta) || !GetVarint(&p, end, &width)) {
      return Status::DataLoss("corrupt snapshot: truncated region varints");
    }
    const int64_t left = prev_left + UnZigZag(left_delta);
    const int64_t right = left + UnZigZag(width);
    if (left < INT32_MIN || left > INT32_MAX || right < INT32_MIN ||
        right > INT32_MAX) {
      return Status::DataLoss("corrupt snapshot: region offset out of range");
    }
    if (left > right) {
      return Status::InvalidArgument("region with left > right");
    }
    regions->push_back(Region{static_cast<Offset>(left),
                              static_cast<Offset>(right)});
    prev_left = left;
  }
  if (p != end) {
    return Status::DataLoss(
        "corrupt snapshot: trailing bytes after region list");
  }
  return Status::OK();
}

struct Section {
  uint8_t tag;
  std::string_view payload;
};

}  // namespace

bool LooksLikeRegal2(std::string_view bytes) {
  return bytes.size() >= kMagicSize &&
         std::memcmp(bytes.data(), kMagic, kMagicSize) == 0;
}

Result<std::string> EncodeSnapshot(const Instance& instance) {
  std::string out;
  out.append(kMagic, kMagicSize);
  uint64_t body_sections = 0;
  std::string payload;
  if (instance.text() != nullptr) {
    // Text dominates snapshot size, and a durable save pays disk writeback
    // for every byte fsynced — so the text ships LZ-compressed whenever
    // that actually shrinks it (codec byte 1; 0 = stored raw).
    const std::string& content = instance.text()->content();
    const std::string compressed = LzCompress(content);
    payload.clear();
    if (compressed.size() < content.size()) {
      payload.push_back('\x01');
      PutU64(&payload, content.size());
      payload += compressed;
    } else {
      payload.push_back('\x00');
      PutU64(&payload, content.size());
      payload += content;
    }
    AppendSection(&out, kTagText, payload);
    ++body_sections;
  }
  for (const std::string& name : instance.names()) {
    if (name.size() > UINT32_MAX) {
      return Status::InvalidArgument("region name too long to encode");
    }
    payload.clear();
    PutU32(&payload, static_cast<uint32_t>(name.size()));
    payload += name;
    AppendRegionList(&payload, **instance.Get(name));
    AppendSection(&out, kTagRegions, payload);
    ++body_sections;
  }
  for (const auto& [key, set] : instance.synthetic_patterns()) {
    if (key.size() > UINT32_MAX) {
      return Status::InvalidArgument("pattern key too long to encode");
    }
    payload.clear();
    PutU32(&payload, static_cast<uint32_t>(key.size()));
    payload += key;
    AppendRegionList(&payload, set);
    AppendSection(&out, kTagPattern, payload);
    ++body_sections;
  }
  // The footer commits the file: section count + CRC of everything above.
  payload.clear();
  PutU64(&payload, body_sections);
  PutU32(&payload, Crc32c(out));
  AppendSection(&out, kTagFooter, payload);
  return out;
}

Result<Instance> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < kMagicSize) {
    return DataLossCounted("truncated",
                           "truncated snapshot: missing header");
  }
  if (!LooksLikeRegal2(bytes)) {
    return DataLossCounted("format", "corrupt snapshot: bad REGAL2 magic");
  }

  // Pass 1 — structural validation of the framing. No instance state is
  // built until every section CRC, the footer and the whole-file CRC have
  // been verified, so a corrupt file can never yield a partially-loaded
  // (silently wrong) instance.
  std::vector<Section> sections;
  size_t pos = kMagicSize;
  bool saw_footer = false;
  while (!saw_footer) {
    if (pos == bytes.size()) {
      return DataLossCounted("truncated",
                             "truncated snapshot: missing footer");
    }
    const size_t remaining = bytes.size() - pos;
    if (remaining < kSectionHeader + kSectionCrc) {
      return DataLossCounted(
          "truncated", "truncated snapshot: section header overruns file");
    }
    const uint8_t tag = static_cast<uint8_t>(bytes[pos]);
    const uint64_t len = GetU64(bytes.data() + pos + 1);
    if (len > remaining - kSectionHeader - kSectionCrc) {
      return DataLossCounted("truncated",
                             "truncated snapshot: section payload overruns "
                             "file (torn tail)");
    }
    const std::string_view framed = bytes.substr(pos, kSectionHeader + len);
    const uint32_t stored_crc =
        GetU32(bytes.data() + pos + kSectionHeader + len);
    if (Crc32c(framed) != stored_crc) {
      return DataLossCounted(
          "section", "checksum mismatch in section at offset " +
                         std::to_string(pos) + " (mid-file corruption)");
    }
    const std::string_view payload = framed.substr(kSectionHeader);
    if (tag == kTagFooter) {
      if (len != kFooterPayload) {
        return DataLossCounted("format",
                               "corrupt snapshot: footer payload size");
      }
      const uint64_t declared_sections = GetU64(payload.data());
      if (declared_sections != sections.size()) {
        return DataLossCounted(
            "file", "corrupt snapshot: footer section count mismatch");
      }
      const uint32_t declared_file_crc = GetU32(payload.data() + 8);
      if (Crc32c(bytes.substr(0, pos)) != declared_file_crc) {
        return DataLossCounted(
            "file",
            "checksum mismatch for whole file (sections spliced, "
            "reordered or dropped)");
      }
      pos += kSectionHeader + len + kSectionCrc;
      if (pos != bytes.size()) {
        return DataLossCounted("format",
                               "corrupt snapshot: bytes after footer");
      }
      saw_footer = true;
      break;
    }
    if (tag != kTagText && tag != kTagRegions && tag != kTagPattern) {
      return DataLossCounted(
          "format", "corrupt snapshot: unknown section tag " +
                        std::to_string(tag) + " at offset " +
                        std::to_string(pos));
    }
    sections.push_back(Section{tag, payload});
    pos += kSectionHeader + len + kSectionCrc;
  }

  // Pass 2 — build the instance from the verified sections.
  Instance instance;
  std::shared_ptr<Text> text;
  for (const Section& section : sections) {
    if (section.tag == kTagText) {
      if (text != nullptr) {
        return Status::DataLoss("corrupt snapshot: duplicate text section");
      }
      if (section.payload.size() < 9) {
        return Status::DataLoss("corrupt snapshot: text header too short");
      }
      const uint8_t codec = static_cast<uint8_t>(section.payload[0]);
      const uint64_t raw_size = GetU64(section.payload.data() + 1);
      // Offsets are int32, so no valid catalog can carry a larger text; the
      // cap also bounds the decompression allocation for crafted files.
      if (raw_size > INT32_MAX) {
        return Status::DataLoss("corrupt snapshot: text size out of range");
      }
      const std::string_view body = section.payload.substr(9);
      if (codec == 0) {
        if (body.size() != raw_size) {
          return Status::DataLoss(
              "corrupt snapshot: stored text size disagrees with section");
        }
        text = std::make_shared<Text>(std::string(body));
      } else if (codec == 1) {
        REGAL_ASSIGN_OR_RETURN(std::string content,
                               LzDecompress(body, raw_size));
        text = std::make_shared<Text>(std::move(content));
      } else {
        return Status::DataLoss("corrupt snapshot: unknown text codec " +
                                std::to_string(codec));
      }
      continue;
    }
    std::string label;
    std::vector<Region> regions;
    REGAL_RETURN_NOT_OK(ParseLabeledRegions(section.payload, &label,
                                            &regions));
    if (section.tag == kTagRegions) {
      REGAL_RETURN_NOT_OK(instance.AddRegionSet(
          label, RegionSet::FromUnsorted(std::move(regions))));
    } else {
      REGAL_ASSIGN_OR_RETURN(Pattern p, Pattern::FromCacheKey(label));
      instance.SetSyntheticPattern(p,
                                   RegionSet::FromUnsorted(std::move(regions)));
    }
  }
  if (text != nullptr) {
    auto index = std::make_shared<SuffixArrayWordIndex>(text.get());
    instance.BindText(text, std::move(index));
  }
  return instance;
}

Result<Instance> SalvageSnapshot(std::string_view bytes,
                                 SalvageReport* report) {
  *report = SalvageReport{};
  if (!LooksLikeRegal2(bytes)) {
    // Without the magic nothing marks these bytes as a snapshot at all;
    // "salvaging" arbitrary data would fabricate regions out of noise.
    return Status::DataLoss("salvage: REGAL2 magic is gone");
  }
  obs::Registry& registry = obs::Registry::Default();
  auto note = [&](std::string message) {
    report->damage.push_back(std::move(message));
  };
  auto drop = [&](std::string message) {
    ++report->sections_dropped;
    registry
        .GetCounter("regal_recovery_salvaged_sections_total",
                    {{"outcome", "dropped"}})
        ->Increment();
    note(std::move(message));
  };

  // Walk the section framing, keeping what verifies. A section whose CRC
  // fails is skipped by its declared length — the length is unverified at
  // that point, but every subsequent position is re-validated against the
  // buffer, so a corrupt length can only lose more sections, never read
  // out of bounds or admit unverified data.
  std::vector<Section> kept;
  size_t pos = kMagicSize;
  while (pos < bytes.size()) {
    const size_t remaining = bytes.size() - pos;
    if (remaining < kSectionHeader + kSectionCrc) {
      report->tail_bytes_dropped = remaining;
      note("salvage: " + std::to_string(remaining) +
           " trailing bytes too short for a section frame");
      break;
    }
    const uint8_t tag = static_cast<uint8_t>(bytes[pos]);
    const uint64_t len = GetU64(bytes.data() + pos + 1);
    if (tag != kTagText && tag != kTagRegions && tag != kTagPattern &&
        tag != kTagFooter) {
      // An unknown tag means the frame boundary itself is untrustworthy;
      // everything from here on is abandoned rather than misparsed.
      report->tail_bytes_dropped = remaining;
      note("salvage: unknown section tag " + std::to_string(tag) +
           " at offset " + std::to_string(pos) + "; abandoning tail");
      break;
    }
    if (len > remaining - kSectionHeader - kSectionCrc) {
      report->tail_bytes_dropped = remaining;
      note("salvage: section at offset " + std::to_string(pos) +
           " overruns the file (torn tail)");
      break;
    }
    const std::string_view framed = bytes.substr(pos, kSectionHeader + len);
    const uint32_t stored_crc =
        GetU32(bytes.data() + pos + kSectionHeader + len);
    const bool crc_ok = Crc32c(framed) == stored_crc;
    if (tag == kTagFooter) {
      if (crc_ok && len == kFooterPayload) report->footer_ok = true;
      // The whole-file CRC cannot hold once any section was dropped; the
      // footer's only salvage value is marking "the writer finished".
      pos += kSectionHeader + len + kSectionCrc;
      continue;
    }
    if (!crc_ok) {
      drop("salvage: checksum mismatch in section at offset " +
           std::to_string(pos));
    } else {
      kept.push_back(Section{tag, framed.substr(kSectionHeader)});
    }
    pos += kSectionHeader + len + kSectionCrc;
  }

  // Build the instance from the surviving sections, tolerantly: a payload
  // that fails to parse is dropped (its CRC passed, so this means the
  // writer died mid-format or the damage hit the length field), and a
  // duplicate name replaces rather than errors — replay must converge.
  Instance instance;
  std::shared_ptr<Text> text;
  for (const Section& section : kept) {
    if (section.tag == kTagText) {
      if (section.payload.size() < 9) {
        drop("salvage: text section header too short");
        continue;
      }
      const uint8_t codec = static_cast<uint8_t>(section.payload[0]);
      const uint64_t raw_size = GetU64(section.payload.data() + 1);
      const std::string_view body = section.payload.substr(9);
      if (raw_size > INT32_MAX) {
        drop("salvage: text size out of range");
        continue;
      }
      if (codec == 0 && body.size() == raw_size) {
        text = std::make_shared<Text>(std::string(body));
      } else if (codec == 1) {
        Result<std::string> content = LzDecompress(body, raw_size);
        if (!content.ok()) {
          drop("salvage: text failed to decompress: " +
               content.status().message());
          continue;
        }
        text = std::make_shared<Text>(std::move(content).value());
      } else {
        drop("salvage: bad text codec/size");
        continue;
      }
    } else {
      std::string label;
      std::vector<Region> regions;
      Status parsed = ParseLabeledRegions(section.payload, &label, &regions);
      if (!parsed.ok()) {
        drop("salvage: section payload unparsable: " + parsed.message());
        continue;
      }
      if (section.tag == kTagRegions) {
        instance.SetRegionSet(label, RegionSet::FromUnsorted(std::move(regions)));
      } else {
        Result<Pattern> p = Pattern::FromCacheKey(label);
        if (!p.ok()) {
          drop("salvage: bad pattern key: " + p.status().message());
          continue;
        }
        instance.SetSyntheticPattern(
            *p, RegionSet::FromUnsorted(std::move(regions)));
      }
    }
    ++report->sections_kept;
    registry
        .GetCounter("regal_recovery_salvaged_sections_total",
                    {{"outcome", "kept"}})
        ->Increment();
  }
  if (text != nullptr) {
    auto index = std::make_shared<SuffixArrayWordIndex>(text.get());
    instance.BindText(text, std::move(index));
  }
  return instance;
}

Status SaveSnapshotToFile(const Instance& instance, const std::string& path,
                          Env* env) {
  // Always-on latency histogram: encode + the full durable commit protocol
  // (temp write, fsyncs, rename), success or not.
  ScopedTimer timed([](double ms) {
    obs::Registry::Default()
        .GetHistogram("regal_storage_save_latency_ms")
        ->Observe(ms);
  });
  if (env == nullptr) env = Env::Default();
  REGAL_ASSIGN_OR_RETURN(std::string payload, EncodeSnapshot(instance));
  return AtomicWriteFile(env, path, payload);
}

Result<Instance> LoadSnapshotFromFile(const std::string& path, Env* env) {
  ScopedTimer timed([](double ms) {
    obs::Registry::Default()
        .GetHistogram("regal_storage_load_latency_ms")
        ->Observe(ms);
  });
  if (env == nullptr) env = Env::Default();
  REGAL_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(path));
  obs::Registry& registry = obs::Registry::Default();
  if (LooksLikeRegal2(bytes)) {
    Result<Instance> decoded = DecodeSnapshot(bytes);
    registry
        .GetCounter("regal_storage_loads_total",
                    {{"format", "regal2"},
                     {"outcome", decoded.ok() ? "ok" : "error"}})
        ->Increment();
    return decoded;
  }
  if (bytes.rfind("REGAL1", 0) == 0) {
    std::istringstream in(bytes);
    Result<Instance> loaded = LoadInstance(in);
    registry
        .GetCounter("regal_storage_loads_total",
                    {{"format", "regal1"},
                     {"outcome", loaded.ok() ? "ok" : "error"}})
        ->Increment();
    return loaded;
  }
  registry
      .GetCounter("regal_storage_loads_total",
                  {{"format", "unknown"}, {"outcome", "error"}})
      ->Increment();
  return Status::DataLoss("corrupt snapshot '" + path +
                          "': unrecognized magic");
}

}  // namespace storage
}  // namespace regal
