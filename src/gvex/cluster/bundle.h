// Snapshot bundles — the unit of replication in gvex::cluster.
//
// A bundle packs one publishable view generation (explanation views plus
// the optional classifier) together with its routing metadata into a
// single artifact:
//
//   gvexbundle-v1
//   <CRC section: header  — route, generation stamp, fingerprint>
//   <CRC section: views   — gvexviews-v2 bytes>
//   <CRC section: model   — gvexgcn-v2 bytes, only when has_model>
//   gvexbundle-end
//
// A bundle whose model was quantized (gnn/quantize.h) is written with
// magic `gvexbundle-v2` instead; its header carries one extra
// `precision fp16|int8` line and its model section holds gvexgcnq-v1
// bytes. Readers accept both: fp32 bundles keep the v1 encoding
// bit-for-bit (their fingerprints never churn), and a v2 bundle is
// dequantized back to an fp32 classifier on load while the quantized
// payload is retained verbatim — re-publishing a fetched v2 bundle
// re-encodes the same bytes, so fingerprints are replication-stable.
//
// Every section rides the shared CRC framing (io_util.h), so truncation
// and bit rot are detected before any payload parsing; on top of that the
// header carries a 64-bit *content fingerprint* over the views+model
// payload bytes which ReadBundle recomputes and verifies. The fingerprint
// is what replication syncs on: two bundles with equal fingerprints carry
// byte-identical content, regardless of who stamped which generation
// number (a restarted primary resyncs cleanly — see replicator.h).
//
// Bundles are what `gvex publish` ships over the wire (RequestType::
// kInstall) and what a standby fetches from its primary (kFetch); the
// registry's atomic hot-swap guarantees a corrupt or half-received bundle
// never replaces a live generation (view_registry.h).
#pragma once

#include <memory>
#include <string>

#include "gvex/common/result.h"
#include "gvex/common/text_codec.h"
#include "gvex/explain/view.h"
#include "gvex/gnn/model.h"
#include "gvex/gnn/quantize.h"

namespace gvex {
namespace cluster {

/// Route every request and bundle defaults to when none is named.
inline constexpr const char kDefaultRoute[] = "default";

/// Routes are wire-inline words: 1..64 chars out of [A-Za-z0-9_.-].
bool IsValidRouteName(const std::string& route);

/// \brief One shippable view generation.
struct ViewBundle {
  std::string route = kDefaultRoute;
  /// Publisher's generation stamp. Informational: receivers assign their
  /// own local generation and sync on `fingerprint`, never on this.
  uint64_t generation = 0;
  /// Content fingerprint (16 lowercase hex digits) over the serialized
  /// views+model payloads. Filled by Write/Encode and verified by
  /// Read/Decode; callers never set it by hand.
  std::string fingerprint;
  ExplanationViewSet views;
  std::shared_ptr<const GcnClassifier> model;  ///< may be null
  /// Quantized model payload; null for fp32 bundles. When set, this is
  /// what the model section serializes (v2 encoding) and `model` holds
  /// its dequantized fp32 twin — the payload of record stays quantized
  /// so round-trips never re-quantize.
  std::shared_ptr<const QuantizedModel> qmodel;
  /// kFp32 unless `qmodel` is set.
  WeightPrecision precision() const {
    return qmodel != nullptr ? qmodel->precision : WeightPrecision::kFp32;
  }
};

/// The fingerprint Write would stamp for this content (hex16).
Result<std::string> BundleFingerprint(const ViewBundle& bundle);

Status WriteBundle(const ViewBundle& bundle, TextWriter* out);

/// Read + verify one bundle: section CRCs, end marker, and the header
/// fingerprint against the recomputed content fingerprint. Any mismatch
/// is an error Status — a torn bundle never parses. Failpoint:
/// "cluster.bundle_read".
Result<ViewBundle> ReadBundle(TextReader* in);

// String forms for the wire (RequestType::kInstall / kFetch payloads).
Result<std::string> EncodeBundle(const ViewBundle& bundle);
Result<ViewBundle> DecodeBundle(const std::string& bytes);

/// Atomic save (temp + rename) with transient-IO retry, like every other
/// v2 artifact writer.
Status SaveBundle(const ViewBundle& bundle, const std::string& path);

}  // namespace cluster
}  // namespace gvex
