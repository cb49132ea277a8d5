// Admin endpoint: the cluster's externally visible introspection surface.
//
// Two layers, deliberately separable:
//
//  * AdminEndpoint — serves the report table (AdminReports()) over one
//    ClusterServer: health, metrics, the time-series ring, the engine
//    stack, traces, latency, workload and digest reports. Each report has
//    a text form, a JSON form, or both; appending ?format=json picks the
//    JSON form (the `delosctl --json` transport). `delosctl --help` lists
//    the table. Handle() is a plain function call, so unit tests and the
//    simulator exercise every route with no sockets.
//
//  * AdminServer — a minimal HTTP/1.1 server that binds a loopback socket
//    and serves an AdminEndpoint. One thread, serial request handling
//    (admin traffic is a human or a scraper, not a workload), poll()-based
//    accept so shutdown is prompt. Port 0 picks an ephemeral port
//    (`port()` reports the bound one) — tests and the delosctl --demo
//    cluster rely on that.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cluster.h"

namespace delos {

struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

// One report on the admin plane. AdminEndpoint serves it at `path`;
// delosctl derives its verb ("/top/keys" is `delosctl top keys`), its usage
// line and its --json support from the same entry.
struct AdminReport {
  // Renders the response; `id` is the parsed <id> argument (0 without one).
  using Render = std::function<AdminResponse(ClusterServer& server, uint64_t id)>;

  std::string path;      // "/top/keys"
  std::string arg = "";  // "" or "<id>": then served only at path + "/<trace id>"
  std::string help;      // one line of delosctl usage
  // The 404 body while the report's plane is off, nullptr while it is on.
  // Null for reports over planes every server has.
  const char* (*absent)(ClusterServer& server) = nullptr;
  Render text = nullptr;  // null: the report is JSON only
  Render json = nullptr;  // null: the report is text only; else served for ?format=json
};

// Every admin report, in usage order.
const std::vector<AdminReport>& AdminReports();

// The report that serves `path` (no query string), with its <id> argument
// parsed into `*id` when `id` is non-null; nullptr when no report does.
const AdminReport* FindAdminReport(const std::string& path, uint64_t* id = nullptr);

class AdminEndpoint {
 public:
  // Routes serve `server`'s reports; the server must outlive the endpoint.
  explicit AdminEndpoint(ClusterServer* server);

  // Dispatches one request path ("/metrics", "/trace/7", ...); "/" is an
  // alias of "/status". The only recognized query parameter is format=json;
  // everything else in a query string is ignored. Unknown paths return 404.
  AdminResponse Handle(const std::string& path) const;

 private:
  ClusterServer* server_;
};

class AdminServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";  // loopback only by default
    uint16_t port = 0;                       // 0 = ephemeral
  };

  explicit AdminServer(AdminEndpoint endpoint) : AdminServer(std::move(endpoint), Options{}) {}
  AdminServer(AdminEndpoint endpoint, Options options);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Binds and spawns the serving thread. Returns false (with no thread) if
  // the socket could not be bound.
  bool Start();
  void Stop();

  // The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

 private:
  void ServeLoopMain();
  void HandleConnection(int fd);

  AdminEndpoint endpoint_;
  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> shutdown_{false};
  std::thread thread_;
};

// One-shot HTTP GET against a local admin server (the delosctl transport and
// the fig11 bench's scrape). Returns false on connect/IO failure; fills
// `status` and `body` on success.
bool AdminHttpGet(const std::string& host, uint16_t port, const std::string& path, int* status,
                  std::string* body);

}  // namespace delos
