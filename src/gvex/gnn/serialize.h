// Save/load trained GCN models so benches can reuse pretrained classifiers
// instead of retraining per experiment.
//
// The format is v2: a config section plus one CRC32-framed section per
// parameter tensor, with an end marker for truncation detection
// (DESIGN.md §6). Save is atomic (temp + rename) with retry on transient
// IO errors.
#pragma once

#include <string>

#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"
#include "gvex/gnn/model.h"

namespace gvex {

class GcnSerializer {
 public:
  static Status Write(const GcnClassifier& model, TextWriter* out);
  static Result<GcnClassifier> Read(TextReader* in);

  static Status Save(const GcnClassifier& model, const std::string& path);
  static Result<GcnClassifier> Load(const std::string& path);
};

/// The config line of gvexgcn-v2 and gvexgcnq-v1 (gnn/quantize.h).
void WriteGcnConfig(const GcnConfig& config, TextWriter* out);
Status ReadGcnConfig(TextReader* in, GcnConfig* config);

}  // namespace gvex
