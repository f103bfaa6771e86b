// Loopback port reservation for tests that fork multi-process TCP clusters.

#ifndef GTHINKER_TESTS_FREE_PORTS_H_
#define GTHINKER_TESTS_FREE_PORTS_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <vector>

#include "util/logging.h"

namespace gthinker {

/// Reserves `n` distinct free loopback ports. All sockets stay open until
/// every port is known, so the kernel cannot hand out duplicates.
inline std::vector<int> PickFreePorts(int n) {
  std::vector<int> fds, ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    GT_CHECK_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    GT_CHECK_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
                0);
    socklen_t len = sizeof(addr);
    GT_CHECK_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
                0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

}  // namespace gthinker

#endif  // GTHINKER_TESTS_FREE_PORTS_H_
