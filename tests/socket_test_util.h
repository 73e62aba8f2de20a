// Unix-socket cluster helpers shared by the socket-backed test suites.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "net/transport_socket.h"

namespace alps::net {

/// Short per-test unix socket paths (sun_path is ~100 bytes; the default
/// temp dir keeps us well under).
class SocketPaths {
 public:
  explicit SocketPaths(const std::string& tag) {
    base_ = std::filesystem::temp_directory_path() /
            ("alps-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::create_directories(base_);
  }
  ~SocketPaths() { std::filesystem::remove_all(base_); }

  std::string node(NodeId id) const {
    return (base_ / (std::to_string(id) + ".sock")).string();
  }

 private:
  std::filesystem::path base_;
};

/// A fully-meshed unix-socket cluster config for `ids`, from `self`'s view.
inline SocketTransportOptions uds_options(const SocketPaths& paths, NodeId self,
                                          const std::vector<NodeId>& ids) {
  SocketTransportOptions opts;
  opts.local_node = self;
  opts.local_name = "n" + std::to_string(self);
  opts.listen = SocketAddress::unix_path(paths.node(self));
  for (NodeId id : ids) {
    if (id == self) continue;
    opts.peers.push_back(SocketPeer{id, "n" + std::to_string(id),
                                    SocketAddress::unix_path(paths.node(id))});
  }
  return opts;
}

}  // namespace alps::net
