// Hostile counts on the wire. Every count the text decoders read is
// bounded by the bytes left before it sizes anything, so a short frame
// with a valid CRC cannot make a decoder allocate gigabytes: not a graph
// meta line, not a response row count, not a model in an install bundle.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "gvex/cluster/bundle.h"
#include "gvex/common/checksum.h"
#include "gvex/common/io_util.h"
#include "gvex/gnn/model.h"
#include "gvex/serve/protocol.h"
#include "gvex/serve/server.h"
#include "gvex/serve/socket.h"
#include "gvex/serve/view_registry.h"

namespace gvex {
namespace serve {
namespace {

// A classify request whose graph record declares `meta_line`.
std::string ClassifyBodyWithMeta(const std::string& meta_line) {
  Request req;
  req.type = RequestType::kClassifyExplain;
  req.has_graph = true;  // an empty graph: "meta 0 0 0 0"
  std::string body = EncodeRequestBody(req);
  const size_t at = body.find("meta 0 0 0 0");
  EXPECT_NE(at, std::string::npos);
  body.replace(at, 12, meta_line);
  return body;
}

// A raw Unix-socket peer: sends framed bytes, reads framed replies.
class RawPeer {
 public:
  explicit RawPeer(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  Result<Response> Receive() {
    char header[8];
    if (!ReadExactly(header, sizeof(header))) {
      return Status::IoError("connection closed before a reply");
    }
    uint32_t crc = 0;
    GVEX_ASSIGN_OR_RETURN(uint32_t len, ParseFrameHeader(header, &crc));
    std::string body(len, '\0');
    if (!ReadExactly(body.data(), len)) {
      return Status::IoError("connection closed inside a reply");
    }
    GVEX_RETURN_NOT_OK(VerifyFrameBody(body, crc));
    return DecodeResponseBody(body);
  }

 private:
  bool ReadExactly(char* out, size_t n) {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
};

// The frame that aborted a server: a 218-byte frame with a valid CRC
// whose graph declares 10^8 nodes of 10^8 features. The decoder used to
// size the feature matrix from the meta line and throw std::bad_alloc on
// the connection thread. Now the count check answers it in place, and the
// same connection serves the next request.
TEST(HostileInputTest, HugeGraphMetaOverASocketGetsAnErrorReply) {
  const std::string body = ClassifyBodyWithMeta("meta 100000000 0 0 100000000");
  const std::string frame = FrameMessage(body);
  EXPECT_EQ(frame.size(), 218u);

  ViewRegistry registry;
  ExplanationServer server(&registry);
  ASSERT_TRUE(server.Start().ok());
  SocketServer socket(&server);
  const std::string path = testing::TempDir() + "gvex_hostile_test.sock";
  ASSERT_TRUE(socket.Start(Endpoint::Unix(path)).ok());

  RawPeer peer(path);
  ASSERT_TRUE(peer.connected());
  ASSERT_TRUE(peer.Send(frame));
  Result<Response> reply = peer.Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->code, StatusCode::kIoError);
  EXPECT_NE(reply->message.find("graph node count 100000000"),
            std::string::npos)
      << reply->message;

  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 2;
  ASSERT_TRUE(peer.Send(FrameMessage(EncodeRequestBody(ping))));
  Result<Response> pong = peer.Receive();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());
  EXPECT_EQ(pong->id, 2u);
  EXPECT_EQ(pong->text, "pong");

  socket.Stop();
  server.Stop();
}

TEST(HostileInputTest, GraphCountsAreBoundedByTheBodyBytes) {
  // 30000 x 30000 features would zero 3.4 GB before the first node line.
  auto square = DecodeRequestBody(ClassifyBodyWithMeta("meta 30000 0 0 30000"));
  ASSERT_FALSE(square.ok());
  EXPECT_TRUE(square.status().IsIoError());
  // Few nodes, a feature column too wide for the bytes left.
  auto wide = DecodeRequestBody(ClassifyBodyWithMeta("meta 1 0 0 1000"));
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.status().message().find("graph feature count"),
            std::string::npos);
  // Edges past the bytes left.
  auto edges = DecodeRequestBody(ClassifyBodyWithMeta("meta 0 100000 0 0"));
  ASSERT_FALSE(edges.ok());
  EXPECT_NE(edges.status().message().find("graph edge count"),
            std::string::npos);
}

TEST(HostileInputTest, ResponseDeclaringSixtyMillionProbabilitiesIsRejected) {
  Response resp;
  resp.probabilities = {0.5f};
  std::string body = EncodeResponseBody(resp);
  const size_t at = body.find("probs 1 ");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, 8, "probs 60000000 ");
  auto decoded = DecodeResponseBody(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIoError());
  // The count check fires before the vector is sized.
  EXPECT_NE(decoded.status().message().find("probs count 60000000"),
            std::string::npos)
      << decoded.status().message();

  // Every other response count has the same bound.
  for (const char* row : {"indices 0", "hits 0", "patterns 0", "routes 0",
                          "coverage 0"}) {
    std::string hostile = EncodeResponseBody(Response());
    const size_t pos = hostile.find(row);
    ASSERT_NE(pos, std::string::npos) << row;
    hostile.replace(pos + std::string(row).size() - 1, 1, "60000000");
    EXPECT_TRUE(DecodeResponseBody(hostile).status().IsIoError()) << row;
  }
}

// ---- install bundles with a hostile model -----------------------------------

// What a sender puts in a bundle's header: the content fingerprint over
// the views and model section bytes (cluster/bundle.cc).
std::string SenderFingerprint(const std::string& views,
                              const std::string& model) {
  uint32_t hi = Crc32Update(0, views.data(), views.size());
  hi = Crc32Update(hi, model.data(), model.size());
  uint32_t lo = Crc32Update(0x67766578u, views.data(), views.size());
  lo = Crc32Update(lo, model.data(), model.size());
  lo = Crc32Update(lo, &hi, sizeof(hi));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%08x%08x", hi, lo);
  return buf;
}

// A gvexgcn-v2 or gvexgcnq-v1 payload from raw section payloads.
std::string ModelBytes(const char* magic, const char* end_tag,
                       const std::vector<std::string>& sections) {
  TextWriter out;
  out << magic << "\n" << sections.size() << "\n";
  for (const std::string& s : sections) WriteSection(&out, s);
  out << end_tag << " " << sections.size() << "\n";
  return out.Take();
}

// A bundle whose every CRC and fingerprint is valid around `model`.
std::string BundleAround(const std::string& model, bool quantized) {
  const std::string views = "gvexviews-v2\n0\ngvexviews-end 0\n";
  TextWriter header;
  header << "route default\ngeneration 1\nhas_model 1\n";
  if (quantized) header << "precision fp16\n";
  header << "fingerprint " << SenderFingerprint(views, model) << "\n";
  TextWriter out;
  out << (quantized ? "gvexbundle-v2" : "gvexbundle-v1") << "\n";
  WriteSection(&out, header.str());
  WriteSection(&out, views);
  WriteSection(&out, model);
  out << "gvexbundle-end\n";
  return out.Take();
}

TEST(HostileInputTest, InstallBundleWithAHostileModelIsRejected) {
  // input 3, hidden 2^30, 1 layer, 2 classes: Create would allocate
  // 2^30 x 2^30 floats from the config alone.
  const std::string huge_hidden = "3 1073741824 1 2 42 0 0\n";
  const std::string small_tensors[4] = {"3 2 0 0 0 0 0 0\n", "1 2 0 0\n",
                                        "2 2 0 0 0 0\n", "1 2 0 0\n"};
  const std::vector<std::string> hostile_models = {
      // The config's hidden dimension against small tensor sections.
      ModelBytes("gvexgcn-v2", "gvexgcn-end",
                 {huge_hidden, small_tensors[0], small_tensors[1],
                  small_tensors[2], small_tensors[3]}),
      // A tensor section that declares a 2^20 x 2^20 matrix.
      ModelBytes("gvexgcn-v2", "gvexgcn-end",
                 {"3 2 1 2 42 0 0\n", "1048576 1048576 0\n",
                  small_tensors[1], small_tensors[2], small_tensors[3]}),
      // 2^40 layers.
      ModelBytes("gvexgcn-v2", "gvexgcn-end",
                 {"3 2 1099511627776 2 42 0 0\n", small_tensors[0]}),
  };
  for (const std::string& model : hostile_models) {
    auto decoded = cluster::DecodeBundle(BundleAround(model, false));
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsIoError()) << decoded.status().ToString();
  }
  // A quantized model whose config declares the huge hidden dimension:
  // DequantizeModel would Create it.
  const std::string quantized = ModelBytes(
      "gvexgcnq-v1", "gvexgcnq-end",
      {"fp16\n" + huge_hidden, small_tensors[0], small_tensors[1],
       small_tensors[2], small_tensors[3]});
  auto decoded = cluster::DecodeBundle(BundleAround(quantized, true));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIoError()) << decoded.status().ToString();

  // Through the server's kInstall path: an error reply, and the route
  // keeps serving nothing rather than a half-built model.
  ViewRegistry registry;
  ExplanationServer server(&registry);
  ASSERT_TRUE(server.Start().ok());
  Request install;
  install.type = RequestType::kInstall;
  install.bundle = BundleAround(hostile_models[0], false);
  Response reply = server.Call(install);
  EXPECT_EQ(reply.code, StatusCode::kIoError) << reply.message;
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace gvex
