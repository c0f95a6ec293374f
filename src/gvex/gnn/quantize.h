// Inference-only weight quantization for shipped model payloads
// (cluster/bundle.h "v2" model sections).
//
// Two reduced precisions, both dequantized back to fp32 on load (the
// served forward pass itself always runs fp32 — what quantization
// changes is the weights it runs over, never the kernels):
//
//  * fp16 — IEEE 754 binary16, software round-to-nearest-even. Halves
//    the payload. Values already representable in fp16 (all half-integer
//    multiples within range, anything with <= 11 significand bits)
//    round-trip exactly.
//  * int8 — per-row symmetric: for each weight row r, scale_r =
//    max|row_r| / 127 and q = round(w / scale_r) in [-127, 127].
//    Quarter-size payload. Documented error bound:
//        |w - dequant(quant(w))| <= scale_r / 2  (per row)
//    i.e. half a quantization step; rows of all zeros are exact.
//
// Fingerprint stability: once a model is quantized, bundles carry the
// QuantizedModel verbatim — fetch, install, and re-publish all re-encode
// the stored quantized tensors rather than re-quantizing the dequantized
// fp32 twin. Content fingerprints therefore survive fetch/re-publish
// cycles by construction (and fp16 happens to be exactly idempotent
// anyway, since every dequantized value is fp16-representable).
//
// The serve-side exactness guarantee is the per-route exact-fp32 policy
// (view_registry.h): a route marked exact-fp32 refuses quantized
// installs, so its answers stay byte-identical to the fp32 reference —
// the fidelity-grading posture of Agarwal et al.'s evaluation framework,
// applied to weights instead of explainers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"
#include "gvex/gnn/model.h"

namespace gvex {

enum class WeightPrecision : int {
  kFp32 = 0,
  kFp16 = 1,
  kInt8 = 2,
};

/// "fp32" / "fp16" / "int8".
const char* WeightPrecisionName(WeightPrecision p);
Result<WeightPrecision> ParseWeightPrecision(const std::string& name);

/// Software fp32 <-> IEEE binary16 conversion (round-to-nearest-even;
/// overflow saturates to ±inf, NaN stays NaN).
uint16_t Fp32ToFp16(float value);
float Fp16ToFp32(uint16_t half);

/// One quantized tensor. Exactly one of fp16/int8 is populated,
/// matching `precision`; `scales` carries one per-row scale for int8.
struct QuantizedTensor {
  WeightPrecision precision = WeightPrecision::kFp16;
  size_t rows = 0;
  size_t cols = 0;
  std::vector<uint16_t> fp16;
  std::vector<int8_t> int8;
  std::vector<float> scales;
};

QuantizedTensor QuantizeTensor(const Matrix& m, WeightPrecision precision);
Matrix DequantizeTensor(const QuantizedTensor& t);

/// A whole classifier in reduced precision: config + every parameter
/// tensor, in GcnClassifier::Parameters() order.
struct QuantizedModel {
  GcnConfig config;
  WeightPrecision precision = WeightPrecision::kFp16;
  std::vector<QuantizedTensor> tensors;
};

/// `precision` must be kFp16 or kInt8 (kFp32 is "don't quantize" — a
/// bundle with an fp32 model carries the model verbatim instead).
Result<QuantizedModel> QuantizeModel(const GcnClassifier& model,
                                     WeightPrecision precision);
Result<GcnClassifier> DequantizeModel(const QuantizedModel& qm);

/// The worst-case |w - dequant(quant(w))| the scheme guarantees for this
/// tensor: 0 for fp16 inputs that are fp16-representable, and
/// max_r(scale_r) / 2 for int8. Tests pin the actual error under this.
float QuantizationErrorBound(const QuantizedTensor& t);

// Sectioned serialization (gvexgcnq-v1): magic, section count, config
// section, one CRC section per tensor, end marker — the gvexgcn-v2
// framing with quantized payloads.
Status WriteQuantizedModel(const QuantizedModel& qm, TextWriter* out);
Result<QuantizedModel> ReadQuantizedModel(TextReader* in);

}  // namespace gvex
