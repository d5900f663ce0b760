#include "storage/snapshot.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "storage/checksum.h"
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

// The shared payload decoders (storage/wire.h) leave the message prefix to
// the format reading them.
Status Corrupt(Status status) {
  if (status.ok()) return status;
  return Status::DataLoss("corrupt snapshot: " + status.message());
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
    payload.clear();
    EncodeText(&payload, instance.text()->content());
    AppendSection(&out, kTagText, payload);
    ++body_sections;
  }
  for (const std::string& name : instance.names()) {
    if (name.size() > UINT32_MAX) {
      return Status::InvalidArgument("region name too long to encode");
    }
    payload.clear();
    EncodeNamedRegions(&payload, name, **instance.Get(name));
    AppendSection(&out, kTagRegions, payload);
    ++body_sections;
  }
  for (const auto& [key, set] : instance.synthetic_patterns()) {
    if (key.size() > UINT32_MAX) {
      return Status::InvalidArgument("pattern key too long to encode");
    }
    payload.clear();
    EncodeNamedRegions(&payload, key, set);
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
      std::string content;
      REGAL_RETURN_NOT_OK(Corrupt(DecodeText(section.payload, &content)));
      text = std::make_shared<Text>(std::move(content));
      continue;
    }
    std::string label;
    RegionSet regions;
    REGAL_RETURN_NOT_OK(
        Corrupt(DecodeNamedRegions(section.payload, &label, &regions)));
    if (section.tag == kTagRegions) {
      REGAL_RETURN_NOT_OK(instance.AddRegionSet(label, std::move(regions)));
    } else {
      REGAL_ASSIGN_OR_RETURN(Pattern p, Pattern::FromCacheKey(label));
      instance.SetSyntheticPattern(p, std::move(regions));
    }
  }
  if (text != nullptr) instance.BindText(std::move(text));
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
    Status parsed;
    if (section.tag == kTagText) {
      std::string content;
      parsed = DecodeText(section.payload, &content);
      if (parsed.ok()) text = std::make_shared<Text>(std::move(content));
    } else {
      std::string label;
      RegionSet regions;
      parsed = DecodeNamedRegions(section.payload, &label, &regions);
      if (parsed.ok() && section.tag == kTagRegions) {
        instance.SetRegionSet(label, std::move(regions));
      } else if (parsed.ok()) {
        Result<Pattern> p = Pattern::FromCacheKey(label);
        parsed = p.status();
        if (p.ok()) instance.SetSyntheticPattern(*p, std::move(regions));
      }
    }
    if (!parsed.ok()) {
      drop("salvage: section payload unparsable: " + parsed.message());
      continue;
    }
    ++report->sections_kept;
    registry
        .GetCounter("regal_recovery_salvaged_sections_total",
                    {{"outcome", "kept"}})
        ->Increment();
  }
  if (text != nullptr) instance.BindText(std::move(text));
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
