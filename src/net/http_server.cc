#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "util/logging.h"

namespace gthinker::net {

namespace {

constexpr int kAcceptPollMs = 100;     // stop-flag check cadence
constexpr int kRequestTimeoutMs = 2000;  // slowloris guard per connection
constexpr size_t kMaxRequestBytes = 8192;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

}  // namespace

void HttpServer::Route(std::string path, Handler handler) {
  if (running()) return;
  routes_.emplace_back(std::move(path), std::move(handler));
}

Status HttpServer::Start(int port) {
  if (running()) return Status::Aborted("http server already running");
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("http port out of range");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind 127.0.0.1:" + std::to_string(port) + ": " +
                           err);
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname: " + err);
  }
  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(addr.sin_port));
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&HttpServer::AcceptLoop, this);
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status ParseRequestLine(const std::string& request, HttpRequestLine* out) {
  const size_t line_end = request.find('\n');
  if (line_end == std::string::npos) {
    return Status::Corruption("http: no complete request line");
  }
  std::string_view line(request.data(), line_end);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const size_t sp1 = line.find(' ');
  if (sp1 == 0 || sp1 == std::string_view::npos) {
    return Status::Corruption("http: request line needs a method and target");
  }
  const size_t sp2 = line.find(' ', sp1 + 1);
  std::string_view path = line.substr(
      sp1 + 1, sp2 == std::string_view::npos ? line.npos : sp2 - sp1 - 1);
  path = path.substr(0, path.find('?'));
  out->method.assign(line.substr(0, sp1));
  out->path.assign(path);
  return Status::Ok();
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    ServeConnection(conn);
    ::close(conn);
  }
}

void HttpServer::ServeConnection(int fd) {
  timeval tv;
  tv.tv_sec = kRequestTimeoutMs / 1000;
  tv.tv_usec = (kRequestTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  // Read until the end of the request head (we ignore bodies).
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
    // HTTP/1.0 simple requests may end after the request line.
    if (request.find('\n') != std::string::npos &&
        request.compare(0, 4, "GET ") != 0 &&
        request.compare(0, 5, "HEAD ") != 0) {
      break;
    }
  }

  HttpResponse resp;
  bool head_only = false;
  HttpRequestLine line;
  if (!ParseRequestLine(request, &line).ok()) {
    resp.status = 400;
    resp.body = "bad request\n";
  } else {
    const std::string& method = line.method;
    const std::string& path = line.path;
    head_only = method == "HEAD";
    if (method != "GET" && method != "HEAD") {
      resp.status = 405;
      resp.body = "only GET is supported\n";
    } else {
      const Handler* handler = nullptr;
      for (const auto& [route, h] : routes_) {
        if (route == path) {
          handler = &h;
          break;
        }
      }
      if (handler == nullptr) {
        resp.status = 404;
        resp.body = "no route for " + path + "\n";
      } else {
        resp = (*handler)();
      }
    }
  }

  std::string head = "HTTP/1.0 " + std::to_string(resp.status) + " " +
                     StatusText(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  std::string wire = std::move(head);
  if (!head_only) wire += resp.body;
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace gthinker::net
