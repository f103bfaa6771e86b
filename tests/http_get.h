// Minimal blocking HTTP/1.0 client for tests that scrape a local endpoint.

#ifndef GTHINKER_TESTS_HTTP_GET_H_
#define GTHINKER_TESTS_HTTP_GET_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

namespace gthinker {

struct HttpReply {
  int status = -1;
  std::string body;
};

/// GET `path` from 127.0.0.1:`port`; status -1 when the request failed.
inline HttpReply HttpGet(int port, const std::string& path) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string req =
      "GET " + path + " HTTP/1.0\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.0 ", 0) == 0 && raw.size() > 12) {
    reply.status = std::atoi(raw.c_str() + 9);
  }
  const size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) reply.body = raw.substr(split + 4);
  return reply;
}

}  // namespace gthinker

#endif  // GTHINKER_TESTS_HTTP_GET_H_
