// semlint-fixture-path: src/net/ok_socket.cc
// Fixture: src/net is the one sanctioned home for the socket layer --
// transport I/O belongs behind a net::Channel.
#include <poll.h>
#include <sys/socket.h>

namespace dswm {

int OpenWorkerPair(int* fds) {
  return socketpair(AF_UNIX, SOCK_STREAM, 0, fds);
}

bool WorkerReadable(int fd) {
  struct pollfd pfd = {fd, POLLIN, 0};
  return poll(&pfd, 1, -1) > 0;
}

}  // namespace dswm
