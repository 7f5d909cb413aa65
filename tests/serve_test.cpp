// End-to-end tests for the `pmafia serve` daemon: a real ServeServer on a
// Unix (and TCP) socket, driven by ServeClient plus raw-socket adversarial
// traffic.  The key property is label parity — every answer over the wire
// must be bit-identical to the offline assign_members path.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/model_io.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "io/data_source.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace mafia::serve {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "serve_test_" + std::to_string(::getpid()) +
         "_" + name;
}

DimensionGrid make_grid(DimId dim) {
  DimensionGrid g;
  g.dim = dim;
  g.domain_lo = 0.0f;
  g.domain_hi = 100.0f;
  for (int i = 0; i <= 10; ++i) g.edges.push_back(static_cast<Value>(10 * i));
  g.thresholds.assign(10, 1.0);
  return g;
}

Cluster make_cluster(std::vector<DimId> dims, std::vector<BinId> lo,
                     std::vector<BinId> hi) {
  Cluster c;
  c.dims = std::move(dims);
  c.units = UnitStore(c.dims.size());
  c.units.push(c.dims, lo);  // one representative unit keeps the file honest
  c.dnf.push_back(BinRect{std::move(lo), std::move(hi)});
  return c;
}

/// A small handcrafted 3-dim model, saved to disk so ServeServer exercises
/// the real load path:
///   cluster 0: dims {1,2}, bins [2,4]x[2,4]  (values 20..50 in d1 and d2)
///   cluster 1: dims {0},   bins [7,8]        (values 70..90 in d0)
/// The regions overlap, so first-match-wins is observable on the wire.
std::string write_test_model(const std::string& name) {
  GridSet grids;
  for (DimId d = 0; d < 3; ++d) grids.dims.push_back(make_grid(d));
  std::vector<Cluster> clusters;
  clusters.push_back(make_cluster({1, 2}, {2, 2}, {4, 4}));
  clusters.push_back(make_cluster({0}, {7}, {8}));
  const std::string path = temp_path(name);
  save_model(path, grids, clusters);
  return path;
}

/// Rows covering every interesting region: in cluster 0 only, cluster 1
/// only, both (first match must win), and noise.
Dataset make_test_rows() {
  Dataset data(3);
  const std::vector<std::vector<Value>> rows = {
      {5.0f, 30.0f, 30.0f},   // cluster 0
      {5.0f, 49.9f, 20.0f},   // cluster 0 (edge of the rect)
      {75.0f, 5.0f, 5.0f},    // cluster 1
      {89.9f, 95.0f, 95.0f},  // cluster 1
      {75.0f, 30.0f, 30.0f},  // both -> label 0, match_count 2
      {5.0f, 5.0f, 5.0f},     // noise
      {95.0f, 51.0f, 30.0f},  // noise (d1 just outside)
  };
  for (const auto& r : rows) data.append(r);
  for (int i = 0; i < 40; ++i) {  // filler spread over all regions
    const std::vector<Value> filler = {static_cast<Value>((i * 13) % 100),
                                       static_cast<Value>((i * 29) % 100),
                                       static_cast<Value>((i * 7) % 100)};
    data.append(filler);
  }
  return data;
}

QueryBatch batch_of(const Dataset& data, std::size_t at, std::size_t n) {
  QueryBatch b;
  b.num_dims = static_cast<std::uint32_t>(data.num_dims());
  const Value* p = data.values().data() + at * data.num_dims();
  b.values.assign(p, p + n * data.num_dims());
  return b;
}

/// Runs serve() on a background thread; stops and joins on destruction.
class RunningServer {
 public:
  explicit RunningServer(const ServeOptions& options)
      : server_(options), thread_([this] { server_.serve(); }) {}

  ~RunningServer() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }

  ServeServer& operator*() { return server_; }
  ServeServer* operator->() { return &server_; }

  /// Polls the stats snapshot until `pred` holds (worker counters are
  /// published after the triggering I/O, so tests wait instead of racing).
  template <typename Pred>
  bool wait_for(Pred pred, int timeout_ms = 5000) {
    for (int waited = 0; waited < timeout_ms; waited += 10) {
      if (pred(server_.snapshot())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred(server_.snapshot());
  }

 private:
  ServeServer server_;
  std::thread thread_;
};

ServeOptions unix_options(const std::string& model_path,
                          const std::string& sock_name) {
  ServeOptions o;
  o.model_path = model_path;
  o.listen = "unix:" + temp_path(sock_name);
  o.serve_threads = 2;
  o.max_batch = 64;
  return o;
}

TEST(ServeE2E, AnswersMatchOfflineAssignMembers) {
  const std::string model_path = write_test_model("parity.model");
  const Model model = load_model(model_path);
  const Dataset data = make_test_rows();
  InMemorySource source(data);
  const auto offline = assign_members(source, model.clusters, model.grids);

  RunningServer server(unix_options(model_path, "parity.sock"));
  ServeClient client(server->endpoint());
  std::vector<RowAnswer> served;
  const std::size_t n = data.num_records();
  for (std::size_t at = 0; at < n;) {  // uneven batches on purpose
    const std::size_t take = std::min<std::size_t>(n - at, 1 + at % 5);
    const auto answers = client.query(batch_of(data, at, take));
    served.insert(served.end(), answers.begin(), answers.end());
    at += take;
  }

  ASSERT_EQ(served.size(), offline.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].label, offline[i]) << "row " << i;
  }
  // The overlap row: first match wins, but both matches are counted.
  EXPECT_EQ(served[4].label, 0);
  EXPECT_EQ(served[4].match_count, 2u);
  EXPECT_EQ(served[5].label, kNoiseLabel);
  EXPECT_EQ(served[5].match_count, 0u);
}

TEST(ServeE2E, ZeroRowBatchAnswersEmptyResponse) {
  const std::string model_path = write_test_model("zero.model");
  RunningServer server(unix_options(model_path, "zero.sock"));
  ServeClient client(server->endpoint());
  QueryBatch empty;
  empty.num_dims = 3;
  EXPECT_TRUE(client.query(empty).empty());
  // The connection stays usable afterwards.
  const auto answers = client.query(batch_of(make_test_rows(), 0, 1));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].label, 0);
}

TEST(ServeE2E, ConcurrentClientsSeeConsistentAnswers) {
  const std::string model_path = write_test_model("concurrent.model");
  const Dataset data = make_test_rows();
  ServeOptions options = unix_options(model_path, "concurrent.sock");
  options.serve_threads = 4;
  RunningServer server(options);

  const Model model = load_model(model_path);
  InMemorySource source(data);
  const auto offline = assign_members(source, model.clusters, model.grids);

  constexpr int kClients = 4;
  constexpr int kBatchesEach = 25;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        ServeClient client(server->endpoint());
        for (int b = 0; b < kBatchesEach; ++b) {
          const auto answers =
              client.query(batch_of(data, 0, data.num_records()));
          for (std::size_t i = 0; i < answers.size(); ++i) {
            if (answers[i].label != offline[i]) {
              failures[c] = "label mismatch at row " + std::to_string(i);
              return;
            }
          }
        }
      } catch (const Error& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "") << "client " << c;

  // Counters are published after the response write, so the last batch's
  // increment can land after the client saw its answer — poll, don't race.
  const std::uint64_t want_batches = kClients * kBatchesEach;
  const std::uint64_t want_rows = want_batches * data.num_records();
  EXPECT_TRUE(server.wait_for([&](const ServeReport& r) {
    return r.batches == want_batches && r.rows == want_rows &&
           r.connections == kClients;
  }));
}

TEST(ServeE2E, StatsFrameReturnsParseableServeV1Json) {
  const std::string model_path = write_test_model("stats.model");
  RunningServer server(unix_options(model_path, "stats.sock"));
  ServeClient client(server->endpoint());
  (void)client.query(batch_of(make_test_rows(), 0, 7));

  const JsonValue doc = json_parse(client.stats_json());
  EXPECT_EQ(doc.at("schema").string, "pmafia-serve-v1");
  EXPECT_EQ(doc.at("model").at("dims").number, 3.0);
  EXPECT_EQ(doc.at("model").at("clusters").number, 2.0);
  EXPECT_EQ(doc.at("traffic").at("batches").number, 1.0);
  EXPECT_EQ(doc.at("traffic").at("rows").number, 7.0);
  EXPECT_TRUE(doc.at("latency_ms").has("p99"));
  EXPECT_GE(doc.at("latency_ms").at("p99").number, 0.0);
}

TEST(ServeE2E, OversizedBatchRejectedByAdmissionCap) {
  const std::string model_path = write_test_model("oversized.model");
  ServeOptions options = unix_options(model_path, "oversized.sock");
  options.max_batch = 4;  // admission cap: 8 + 4*3*4 = 56 payload bytes
  RunningServer server(options);

  ServeClient client(server->endpoint());
  try {
    (void)client.query(batch_of(make_test_rows(), 0, 5));
    FAIL() << "expected an error frame";
  } catch (const Error& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::Usage) << e.what();
    EXPECT_NE(std::string(e.what()).find("max-batch"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(server.wait_for(
      [](const ServeReport& r) { return r.oversized_batches == 1; }));

  // The declared-shape variant: len passes admission but the decoded row
  // count exceeds --max-batch.  Raw 8-byte payload declaring 5 rows.
  ServeClient raw(server->endpoint());
  const std::uint32_t shape[2] = {5, 3};
  raw.send_frame(kFrameQuery, kProtocolVersion, shape, sizeof(shape));
  const auto [header, payload] = raw.read_frame();
  EXPECT_EQ(header.type, kFrameError);
  EXPECT_TRUE(server.wait_for(
      [](const ServeReport& r) { return r.oversized_batches == 2; }));
}

TEST(ServeE2E, MalformedFramesRejectedAndConnectionClosed) {
  const std::string model_path = write_test_model("malformed.model");
  RunningServer server(unix_options(model_path, "malformed.sock"));

  {  // unknown frame type
    ServeClient client(server->endpoint());
    client.send_frame(/*type=*/99, 0, nullptr, 0);
    const auto [header, payload] = client.read_frame();
    EXPECT_EQ(header.type, kFrameError);
    // The server closes after an error frame: the next read sees EOF.
    EXPECT_THROW((void)client.read_frame(), Error);
  }
  {  // wrong protocol version on a query
    ServeClient client(server->endpoint());
    const auto query = encode_query(batch_of(make_test_rows(), 0, 2));
    client.send_frame(kFrameQuery, kProtocolVersion + 7, query.data(),
                      query.size());
    const auto [header, payload] = client.read_frame();
    EXPECT_EQ(header.type, kFrameError);
    EXPECT_NE(std::string(payload.begin(), payload.end()).find("version"),
              std::string::npos);
  }
  {  // stats frames must be empty
    ServeClient client(server->endpoint());
    client.send_frame(kFrameStats, 0, "x", 1);
    const auto [header, payload] = client.read_frame();
    EXPECT_EQ(header.type, kFrameError);
  }
  EXPECT_TRUE(server.wait_for(
      [](const ServeReport& r) { return r.rejected_frames == 3; }));
}

TEST(ServeE2E, NonFiniteQueryIsAnInputErrorNotALabel) {
  // Dimension 0 has 256 bins, where bin_of's past-the-end answer for a NaN
  // wraps to bin 0, and the cluster's rectangle starts at bin 0: a NaN that
  // got past decoding would be labelled a member.
  GridSet grids;
  DimensionGrid wide;
  wide.dim = 0;
  wide.domain_lo = 0.0f;
  wide.domain_hi = 256.0f;
  for (int i = 0; i <= 256; ++i) wide.edges.push_back(static_cast<Value>(i));
  wide.thresholds.assign(256, 1.0);
  grids.dims.push_back(wide);
  grids.dims.push_back(make_grid(1));
  std::vector<Cluster> clusters;
  clusters.push_back(make_cluster({0}, {0}, {3}));
  const std::string model_path = temp_path("nonfinite.model");
  save_model(model_path, grids, clusters);
  RunningServer server(unix_options(model_path, "nonfinite.sock"));

  QueryBatch member;
  member.num_dims = 2;
  member.values = {1.5f, 50.0f};
  {
    ServeClient client(server->endpoint());
    ASSERT_EQ(client.query(member).at(0).label, 0);
  }
  for (const Value bad : {std::numeric_limits<Value>::quiet_NaN(),
                          std::numeric_limits<Value>::infinity(),
                          -std::numeric_limits<Value>::infinity()}) {
    QueryBatch batch = member;
    batch.values[0] = bad;
    ServeClient client(server->endpoint());
    try {
      const auto answers = client.query(batch);
      FAIL() << "value " << bad << " was labelled " << answers.at(0).label;
    } catch (const Error& e) {
      EXPECT_EQ(e.error_class(), ErrorClass::Input) << e.what();
      EXPECT_NE(std::string(e.what()).find("non-finite value at row 0, dim 0"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(server.wait_for(
      [](const ServeReport& r) { return r.rejected_frames == 3; }));

  // The daemon keeps serving.
  ServeClient after(server->endpoint());
  EXPECT_EQ(after.query(member).at(0).label, 0);
}

TEST(ServeE2E, MidFrameDisconnectIsCountedNotFatal) {
  const std::string model_path = write_test_model("midframe.model");
  ServeOptions options = unix_options(model_path, "midframe.sock");
  RunningServer server(options);

  // Raw socket: send half a header, then vanish.
  const std::string sock_path = options.listen.substr(strlen("unix:"));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char half_header[5] = {1, 0, 0, 0, 1};
  ASSERT_EQ(::write(fd, half_header, sizeof(half_header)),
            static_cast<ssize_t>(sizeof(half_header)));
  ::close(fd);

  EXPECT_TRUE(server.wait_for(
      [](const ServeReport& r) { return r.midframe_disconnects == 1; }));

  // A well-formed client still gets served afterwards.
  ServeClient client(server->endpoint());
  EXPECT_EQ(client.query(batch_of(make_test_rows(), 0, 3)).size(), 3u);
}

TEST(ServeE2E, ReloadSwapsModelAndFailedReloadKeepsServing) {
  // Start from a model whose only cluster is in dims {0}, then overwrite
  // the file with the two-cluster model and SIGHUP-equivalent reload.
  const std::string model_path = temp_path("reload.model");
  {
    GridSet grids;
    for (DimId d = 0; d < 3; ++d) grids.dims.push_back(make_grid(d));
    std::vector<Cluster> one;
    one.push_back(make_cluster({0}, {7}, {8}));
    save_model(model_path, grids, one);
  }
  RunningServer server(unix_options(model_path, "reload.sock"));
  ServeClient client(server->endpoint());

  QueryBatch probe;  // inside cluster {1,2} of the NEW model, noise in the old
  probe.num_dims = 3;
  probe.values = {5.0f, 30.0f, 30.0f};
  EXPECT_EQ(client.query(probe)[0].label, kNoiseLabel);

  {  // new model on disk, then reload
    GridSet grids;
    for (DimId d = 0; d < 3; ++d) grids.dims.push_back(make_grid(d));
    std::vector<Cluster> two;
    two.push_back(make_cluster({1, 2}, {2, 2}, {4, 4}));
    two.push_back(make_cluster({0}, {7}, {8}));
    save_model(model_path, grids, two);
  }
  server->request_reload();
  ASSERT_TRUE(server.wait_for(
      [](const ServeReport& r) { return r.model_reloads == 1; }));
  EXPECT_EQ(client.query(probe)[0].label, 0);

  {  // corrupt the file: the reload must fail and keep the good model
    std::ofstream out(model_path, std::ios::trunc);
    out << "MAFIA-MODEL 1\nnot a model\n";
  }
  server->request_reload();
  ASSERT_TRUE(server.wait_for(
      [](const ServeReport& r) { return r.reload_failures == 1; }));
  EXPECT_EQ(client.query(probe)[0].label, 0);
}

TEST(ServeE2E, TcpLoopbackEndpointWorks) {
  const std::string model_path = write_test_model("tcp.model");
  ServeOptions options;
  options.model_path = model_path;
  options.listen = "tcp:127.0.0.1:0";  // kernel-assigned port
  options.serve_threads = 2;
  options.max_batch = 64;
  RunningServer server(options);
  ASSERT_NE(server->endpoint(), options.listen)
      << "endpoint() must carry the bound port";

  ServeClient client(server->endpoint());
  const auto answers = client.query(batch_of(make_test_rows(), 0, 5));
  ASSERT_EQ(answers.size(), 5u);
  EXPECT_EQ(answers[4].match_count, 2u);
}

TEST(ServeE2E, StaleUnixSocketPathIsReclaimedOnRestart) {
  // Simulates the SIGKILL leftover: a dead socket file already on the path.
  const std::string model_path = write_test_model("stale.model");
  ServeOptions options = unix_options(model_path, "stale.sock");
  const std::string sock_path = options.listen.substr(strlen("unix:"));
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, sock_path.c_str(), sock_path.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);  // closes without unlinking: the stale-path scenario
  }
  RunningServer server(options);
  ServeClient client(server->endpoint());
  EXPECT_EQ(client.query(batch_of(make_test_rows(), 0, 2)).size(), 2u);
}

TEST(ServeE2E, IdleDaemonStopsWithinDeadlineEveryTime) {
  // A stop can land while a worker sits between its wait predicate and the
  // wait itself; unless the stop flag is published under the queue mutex,
  // that worker misses the wakeup and the daemon never finishes stopping.
  // Start and stop an idle daemon many times, each stop under a deadline.
  const std::string model_path = write_test_model("idle_stop.model");
  for (int round = 0; round < 100; ++round) {
    ServeOptions options = unix_options(model_path, "idle_stop.sock");
    options.serve_threads = 8;
    auto server = std::make_unique<ServeServer>(options);
    auto finished = std::make_shared<std::promise<void>>();
    std::future<void> done = finished->get_future();
    std::thread thread([daemon = server.get(), finished] {
      daemon->serve();
      finished->set_value();
    });
    server->stop();
    if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      // The hung serve() still uses the server: leave it alive and the
      // thread detached rather than destroy the server under it.
      thread.detach();
      (void)server.release();
      FAIL() << "serve() did not return within 10 s of stop() (round "
             << round << ")";
    }
    thread.join();
  }
}

}  // namespace
}  // namespace mafia::serve
