#ifndef GTHINKER_NET_HTTP_SERVER_H_
#define GTHINKER_NET_HTTP_SERVER_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gthinker::net {

/// Response a route handler produces. Defaults to 200 text/plain.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// The parts of an HTTP request line the server routes on.
struct HttpRequestLine {
  std::string method;  // "GET", "HEAD", ... (never empty)
  std::string path;    // the target, query string stripped
};

/// Parses the request line at the head of `request` (bytes from a client,
/// so anything): the method, then one space, then the target up to the next
/// space or the line end; a trailing '\r' is dropped. Corruption when no
/// complete line arrived or it has no method and target.
Status ParseRequestLine(const std::string& request, HttpRequestLine* out);

/// Minimal dependency-free HTTP/1.0 server for introspection endpoints:
/// GET/HEAD only, one request per connection (`Connection: close`), exact
/// path routing (query strings are stripped). Binds 127.0.0.1 — this is a
/// local diagnosis surface, not a public API. One accept thread serves
/// requests serially; handlers are expected to be cheap snapshot renders.
///
/// Lives in net/ because it is generic plumbing; the obs layer composes the
/// actual status routes on top (see obs/status_server.h).
class HttpServer {
 public:
  using Handler = std::function<HttpResponse()>;

  HttpServer() = default;
  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for an exact path ("/metrics"). Must be called
  /// before Start; later registrations are ignored once running.
  void Route(std::string path, Handler handler);

  /// Binds 127.0.0.1:`port` and starts the accept thread. Port 0 asks the
  /// kernel for an ephemeral port (see port() for the result).
  Status Start(int port);

  /// Stops the accept thread and closes the listener. Idempotent.
  void Stop();

  /// The bound port, valid after a successful Start.
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  std::vector<std::pair<std::string, Handler>> routes_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace gthinker::net

#endif  // GTHINKER_NET_HTTP_SERVER_H_
