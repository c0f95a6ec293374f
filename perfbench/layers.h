// The traced run's layer replay. Every workload's traced run ends with the
// same replay on its own seed's inputs, so each one reports every per-layer
// metric. One thread calls into each layer's public functions in turn and
// records each call as a span, with the program's own spans turned on.
#pragma once

#include <cstdint>

#include "fixture.h"
#include "trace.h"

namespace perfbench {

/// Span ids of the serve and ingest sections start here, so ids stay
/// unique across the merged trace.
inline constexpr uint64_t kServeIdBase = uint64_t{1} << 32;
inline constexpr uint64_t kIngestIdBase = uint64_t{2} << 32;

/// explain, gnn, influence, mining, matching: ExplainGraph per graph,
/// InfluenceAnalyzer::Build, EVerify::Verify, PGen and Psum per label.
void ReplayExplain(const Fixture& fixture, SpanLog* log, RunResult* result);

/// serve and the graph codec: the body codecs, ExplanationServer::Call
/// in-process, SocketClient::Call, the GCN forward and direct ViewQuery
/// calls, on a server stack of its own.
void ReplayServe(const Fixture& fixture, const Options& options, SpanLog* log,
                 RunResult* result);

/// ingest: writer-only ingest cycles, StreamGvex::IngestGraph on a private
/// solver, IngestJournal::AppendGraph on a throwaway journal, and
/// ViewRegistry::InstallBundle plus WarmMatchCache, on a stack of its own.
void ReplayIngest(const Fixture& fixture, const Options& options, SpanLog* log,
                  RunResult* result);

/// The three sections in turn, then the self time per span name, the
/// self_ms.* metrics (of the explain section) and the Chrome trace file in
/// the work dir.
void ReplayLayers(const Fixture& fixture, const Options& options,
                  RunResult* result);

}  // namespace perfbench
