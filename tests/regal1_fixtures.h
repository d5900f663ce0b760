#ifndef REGAL_TESTS_REGAL1_FIXTURES_H_
#define REGAL_TESTS_REGAL1_FIXTURES_H_

// Inputs for the read-only REGAL1 loader (storage/serialize.h). The
// product writes REGAL2 only, so REGAL1 bytes come from two test-side
// sources:
//  * fixtures under tests/data/regal1, written by the retired REGAL1
//    writer and checked in byte for byte;
//  * EmitRegal1, a small emitter for inputs no fixture covers (random
//    instances). StorageTest.Regal1EmitterReproducesTheFixtures pins it to
//    the fixtures, so it writes exactly what the retired writer wrote.

#include <fstream>
#include <sstream>
#include <string>

#include "core/instance.h"

namespace regal {

/// The bytes of tests/data/regal1/<name>; empty when the file is missing.
inline std::string Regal1Fixture(const std::string& name) {
  std::ifstream in(std::string(REGAL_TEST_DATA_DIR) + "/regal1/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// REGAL1 bytes for `instance` (region names must be whitespace-free).
/// Pattern keys holding whitespace take the length-prefixed `patternb`
/// record, the rest the `pattern` record.
inline std::string EmitRegal1(const Instance& instance) {
  std::string out = "REGAL1\n";
  auto regions = [&out](const RegionSet& set) {
    for (const Region& r : set) {
      out += std::to_string(r.left) + " " + std::to_string(r.right) + "\n";
    }
  };
  if (instance.text() != nullptr) {
    const std::string& content = instance.text()->content();
    out += "text " + std::to_string(content.size()) + "\n" + content + "\n";
  }
  for (const std::string& name : instance.names()) {
    const RegionSet& set = **instance.Get(name);
    out += "name " + name + " " + std::to_string(set.size()) + "\n";
    regions(set);
  }
  for (const auto& [key, set] : instance.synthetic_patterns()) {
    if (key.find_first_of(" \t\r\n") == std::string::npos) {
      out += "pattern " + key + " " + std::to_string(set.size()) + "\n";
    } else {
      out += "patternb " + std::to_string(key.size()) + " " +
             std::to_string(set.size()) + "\n" + key + "\n";
    }
    regions(set);
  }
  return out + "end\n";
}

}  // namespace regal

#endif  // REGAL_TESTS_REGAL1_FIXTURES_H_
