#include "gvex/gnn/serialize.h"

#include <fstream>
#include <sstream>

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"

namespace gvex {

namespace {
constexpr const char* kMagicV2 = "gvexgcn-v2";
constexpr const char* kEndTag = "gvexgcn-end";

void WriteMatrix(const Matrix& m, std::ostream* out) {
  (*out) << m.rows() << " " << m.cols();
  for (size_t i = 0; i < m.size(); ++i) (*out) << " " << m.data()[i];
  (*out) << "\n";
}

bool ReadMatrix(std::istream* in, Matrix* m) {
  size_t rows = 0, cols = 0;
  if (!((*in) >> rows >> cols)) return false;
  *m = Matrix(rows, cols);
  for (size_t i = 0; i < m->size(); ++i) {
    if (!((*in) >> m->data()[i])) return false;
  }
  return true;
}

void WriteConfigLine(const GcnConfig& c, std::ostream* out) {
  (*out) << c.input_dim << " " << c.hidden_dim << " " << c.num_layers << " "
         << c.num_classes << " " << c.seed << " " << c.edge_type_weights.size();
  for (float w : c.edge_type_weights) (*out) << " " << w;
  (*out) << " " << static_cast<int>(c.propagation) << "\n";
}

Status ReadConfigLine(std::istream* in, GcnConfig* config) {
  size_t num_edge_weights = 0;
  if (!((*in) >> config->input_dim >> config->hidden_dim >>
        config->num_layers >> config->num_classes >> config->seed >>
        num_edge_weights)) {
    return Status::IoError("bad model config");
  }
  config->edge_type_weights.resize(num_edge_weights);
  for (float& w : config->edge_type_weights) {
    if (!((*in) >> w)) return Status::IoError("bad edge weight");
  }
  int propagation = 0;
  if (!((*in) >> propagation) || propagation < 0 || propagation > 2) {
    return Status::IoError("bad propagation kind");
  }
  config->propagation = static_cast<Graph::PropagationKind>(propagation);
  return Status::OK();
}

Result<GcnClassifier> ReadV2Body(std::istream* in) {
  size_t num_sections = 0;
  if (!((*in) >> num_sections) || num_sections == 0) {
    return Status::IoError("bad model section count");
  }
  GVEX_ASSIGN_OR_RETURN(std::string config_payload, ReadSection(in));
  std::istringstream config_in(config_payload);
  GcnConfig config;
  GVEX_RETURN_NOT_OK(ReadConfigLine(&config_in, &config));
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnClassifier::Create(config));
  std::vector<Matrix*> params = model.MutableParameters();
  if (params.size() != num_sections - 1) {
    return Status::IoError("model tensor count mismatch");
  }
  for (Matrix* p : params) {
    GVEX_ASSIGN_OR_RETURN(std::string payload, ReadSection(in));
    std::istringstream tensor_in(payload);
    Matrix loaded;
    if (!ReadMatrix(&tensor_in, &loaded)) {
      return Status::IoError("bad model tensor");
    }
    if (loaded.rows() != p->rows() || loaded.cols() != p->cols()) {
      return Status::IoError("model tensor shape mismatch");
    }
    *p = std::move(loaded);
  }
  std::string tag;
  size_t n_end = 0;
  if (!((*in) >> tag >> n_end) || tag != kEndTag || n_end != num_sections) {
    return Status::IoError("model end marker missing (truncated file?)");
  }
  return model;
}

}  // namespace

Status GcnSerializer::Write(const GcnClassifier& model, std::ostream* out) {
  GVEX_FAILPOINT_RETURN("gnn.serialize.write");
  SetMaxPrecision(out);
  std::vector<const Matrix*> params = model.Parameters();
  (*out) << kMagicV2 << "\n" << (1 + params.size()) << "\n";
  {
    std::ostringstream rec;
    SetMaxPrecision(&rec);
    WriteConfigLine(model.config(), &rec);
    GVEX_RETURN_NOT_OK(WriteSection(out, rec.str()));
  }
  for (const Matrix* p : params) {
    std::ostringstream rec;
    SetMaxPrecision(&rec);
    WriteMatrix(*p, &rec);
    GVEX_RETURN_NOT_OK(WriteSection(out, rec.str()));
  }
  (*out) << kEndTag << " " << (1 + params.size()) << "\n";
  if (!out->good()) return Status::IoError("model write failed");
  return Status::OK();
}

Result<GcnClassifier> GcnSerializer::Read(std::istream* in) {
  GVEX_FAILPOINT_RETURN("gnn.serialize.read");
  std::string magic;
  if (!((*in) >> magic)) return Status::IoError("bad model magic");
  if (magic == kMagicV2) return ReadV2Body(in);
  return Status::IoError("bad model magic");
}

Status GcnSerializer::Save(const GcnClassifier& model,
                           const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(
        path, [&](std::ostream* out) { return Write(model, out); });
  });
}

Result<GcnClassifier> GcnSerializer::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return Read(&in);
}

}  // namespace gvex
