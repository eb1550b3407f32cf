// semlint-fixture-path: src/monitor/bad_socket.cc
// Fixture: raw POSIX socket/poll/select calls outside src/net/ must be
// flagged; transport I/O goes through a net::Channel, never ad-hoc
// descriptors.
#include <poll.h>
#include <sys/select.h>
#include <sys/socket.h>

namespace dswm {

int OpenSidechannel() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
  return fds[0];
}

bool WaitReadable(int fd) {
  struct pollfd pfd = {fd, POLLIN, 0};
  return poll(&pfd, 1, 100) > 0;
}

bool WaitReadableLegacy(int fd) {
  fd_set rd;
  FD_ZERO(&rd);
  FD_SET(fd, &rd);
  return select(fd + 1, &rd, nullptr, nullptr, nullptr) > 0;
}

}  // namespace dswm
