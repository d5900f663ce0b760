#ifndef REGAL_STORAGE_SERIALIZE_H_
#define REGAL_STORAGE_SERIALIZE_H_

#include <iostream>
#include <string>

#include "core/instance.h"
#include "util/status.h"

namespace regal {

/// The legacy line-oriented snapshot format, versioned header "REGAL1".
/// Read-only: REGAL2 (storage/snapshot.h) is the only format the product
/// writes; this reader keeps existing REGAL1 files opening.
///
///   REGAL1
///   text <byte-count>
///   <raw text bytes>
///   name <region-name> <count>
///   <left> <right>            (count lines)
///   pattern <cache-key> <count>
///   <left> <right>            (count lines; synthetic W tables)
///   patternb <key-bytes> <count>
///   <raw cache-key bytes>     (keys containing whitespace — e.g. the
///   <left> <right>             phrase pattern "new york" — are stored
///                              length-prefixed; whitespace-free keys use
///                              the `pattern` record)
///   end
///
/// The reader tolerates CRLF ("\r\n") line endings throughout. Corrupt or
/// truncated records are reported as InvalidArgument, and declared counts
/// and sizes are validated against the remaining input before any
/// allocation (a hand-edited "name r 999999999" cannot OOM the loader).
///
/// Text-backed instances rebuild their suffix-array word index on load.
/// Region names may contain any non-whitespace characters.
///
/// REGAL1 has no checksums: corruption that still parses (a flipped digit)
/// loads silently, where REGAL2 detects torn writes and bit rot as
/// kDataLoss. storage::LoadSnapshotFromFile opens files of either format.
Result<Instance> LoadInstance(std::istream& in);

}  // namespace regal

#endif  // REGAL_STORAGE_SERIALIZE_H_
