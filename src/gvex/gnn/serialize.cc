#include "gvex/gnn/serialize.h"

#include "gvex/common/failpoint.h"
#include "gvex/common/io_util.h"

namespace gvex {

namespace {
constexpr const char* kMagicV2 = "gvexgcn-v2";
constexpr const char* kEndTag = "gvexgcn-end";

void WriteMatrix(const Matrix& m, TextWriter* out) {
  *out << m.rows() << " " << m.cols();
  for (size_t i = 0; i < m.size(); ++i) *out << " " << m.data()[i];
  *out << "\n";
}

Status ReadMatrix(TextReader* in, Matrix* m) {
  size_t rows = 0, cols = 0;
  if (!(*in >> rows >> cols)) return Status::IoError("bad model tensor");
  // A value takes at least 2 bytes (" 0").
  GVEX_RETURN_NOT_OK(in->CheckGrid(rows, cols, 2, "model tensor value"));
  *m = Matrix(rows, cols);
  for (size_t i = 0; i < m->size(); ++i) {
    if (!(*in >> m->data()[i])) return Status::IoError("bad model tensor");
  }
  return Status::OK();
}

Result<GcnClassifier> ReadV2Body(TextReader* in) {
  size_t num_sections = 0;
  if (!(*in >> num_sections) || num_sections == 0) {
    return Status::IoError("bad model section count");
  }
  GVEX_RETURN_NOT_OK(
      in->CheckCount(num_sections, kMinSectionBytes, "model section"));
  GVEX_ASSIGN_OR_RETURN(std::string_view config_payload, ReadSection(in));
  TextReader config_in(config_payload);
  GcnConfig config;
  GVEX_RETURN_NOT_OK(ReadGcnConfig(&config_in, &config));
  // Every tensor is read and checked against the config before Create
  // allocates from the config's dimensions.
  std::vector<Matrix> tensors(num_sections - 1);
  std::vector<std::pair<size_t, size_t>> shapes;
  for (Matrix& t : tensors) {
    GVEX_ASSIGN_OR_RETURN(std::string_view payload, ReadSection(in));
    TextReader tensor_in(payload);
    GVEX_RETURN_NOT_OK(ReadMatrix(&tensor_in, &t));
    shapes.emplace_back(t.rows(), t.cols());
  }
  GVEX_RETURN_NOT_OK(GcnClassifier::CheckParameterShapes(config, shapes));
  GVEX_ASSIGN_OR_RETURN(GcnClassifier model, GcnClassifier::Create(config));
  std::vector<Matrix*> params = model.MutableParameters();
  for (size_t i = 0; i < params.size(); ++i) *params[i] = std::move(tensors[i]);
  std::string_view tag;
  size_t n_end = 0;
  if (!(*in >> tag >> n_end) || tag != kEndTag || n_end != num_sections) {
    return Status::IoError("model end marker missing (truncated file?)");
  }
  return model;
}

}  // namespace

void WriteGcnConfig(const GcnConfig& c, TextWriter* out) {
  *out << c.input_dim << " " << c.hidden_dim << " " << c.num_layers << " "
       << c.num_classes << " " << c.seed << " " << c.edge_type_weights.size();
  for (float w : c.edge_type_weights) *out << " " << w;
  *out << " " << static_cast<int>(c.propagation) << "\n";
}

Status ReadGcnConfig(TextReader* in, GcnConfig* config) {
  size_t num_edge_weights = 0;
  if (!(*in >> config->input_dim >> config->hidden_dim >> config->num_layers >>
        config->num_classes >> config->seed >> num_edge_weights)) {
    return Status::IoError("bad model config");
  }
  // A weight takes at least 2 bytes (" 0").
  GVEX_RETURN_NOT_OK(in->CheckCount(num_edge_weights, 2, "edge weight"));
  config->edge_type_weights.resize(num_edge_weights);
  for (float& w : config->edge_type_weights) {
    if (!(*in >> w)) return Status::IoError("bad edge weight");
  }
  int propagation = 0;
  if (!(*in >> propagation) || propagation < 0 || propagation > 2) {
    return Status::IoError("bad propagation kind");
  }
  config->propagation = static_cast<Graph::PropagationKind>(propagation);
  return Status::OK();
}

Status GcnSerializer::Write(const GcnClassifier& model, TextWriter* out) {
  GVEX_FAILPOINT_RETURN("gnn.serialize.write");
  std::vector<const Matrix*> params = model.Parameters();
  *out << kMagicV2 << "\n" << (1 + params.size()) << "\n";
  {
    TextWriter rec;
    WriteGcnConfig(model.config(), &rec);
    WriteSection(out, rec.str());
  }
  for (const Matrix* p : params) {
    TextWriter rec;
    WriteMatrix(*p, &rec);
    WriteSection(out, rec.str());
  }
  *out << kEndTag << " " << (1 + params.size()) << "\n";
  return Status::OK();
}

Result<GcnClassifier> GcnSerializer::Read(TextReader* in) {
  GVEX_FAILPOINT_RETURN("gnn.serialize.read");
  std::string_view magic;
  if (!(*in >> magic) || magic != kMagicV2) {
    return Status::IoError("bad model magic");
  }
  return ReadV2Body(in);
}

Status GcnSerializer::Save(const GcnClassifier& model,
                           const std::string& path) {
  return RetryIo([&] {
    return AtomicSave(path,
                      [&](TextWriter* out) { return Write(model, out); });
  });
}

Result<GcnClassifier> GcnSerializer::Load(const std::string& path) {
  GVEX_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  TextReader in(bytes);
  return Read(&in);
}

}  // namespace gvex
