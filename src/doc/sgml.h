#ifndef REGAL_DOC_SGML_H_
#define REGAL_DOC_SGML_H_

#include <string>

#include "core/instance.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace regal {

/// A minimal SGML/XML-style markup parser: `<tag ...>` opens a region,
/// `</tag>` closes it; tags must nest properly. One region name per tag
/// name; a region spans from the '<' of the open tag to the '>' of the
/// close tag inclusive, so nested tags yield strictly nested regions. The
/// result is text-backed (suffix-array word index), ready for σ_p. The tags
/// are scanned by a task on exec::ThreadPool::Default() while the calling
/// thread builds the index.
///
/// This realizes the paper's motivating setting ("documents in digital
/// form ... markup conventions (as it is the case with SGML)").
Result<Instance> ParseSgml(const std::string& source);

/// Knobs for the synthetic play generator (an OED/Shakespeare-flavoured
/// document corpus: play > act > scene > speech > speaker/line).
struct PlayGeneratorOptions {
  int acts = 3;
  int scenes_per_act = 3;
  int speeches_per_scene = 8;
  int lines_per_speech = 3;
  int vocabulary = 50;  // Distinct words "word0".."word{n-1}".
  uint64_t seed = 7;
};

/// Generates SGML markup for a synthetic play.
std::string GeneratePlaySource(const PlayGeneratorOptions& options);

/// The RIG of the generated plays:
/// play > act > scene > speech > {speaker, line}.
Digraph PlayRig();

}  // namespace regal

#endif  // REGAL_DOC_SGML_H_
