#include "sim/machine.hpp"

namespace papisim::sim {

Machine::Machine(MachineConfig cfg) : cfg_(std::move(cfg)) {
  sockets_.reserve(cfg_.sockets);
  for (std::uint32_t s = 0; s < cfg_.sockets; ++s) {
    auto sock = std::make_unique<Socket>();
    sock->mem = std::make_unique<MemController>(cfg_.mem_channels, cfg_.line_bytes,
                                                cfg_.channel_interleave_lines);
    sock->l3 = std::make_unique<L3Fabric>(cfg_, *sock->mem);
    sock->noise = std::make_unique<NoiseModel>(cfg_.noise, *sock->mem, s);
    sock->engines.reserve(cfg_.cores_per_socket);
    for (std::uint32_t c = 0; c < cfg_.cores_per_socket; ++c) {
      sock->engines.push_back(std::make_unique<AccessEngine>(
          cfg_, c, *sock->l3, clock_, *sock->noise));
    }
    sockets_.push_back(std::move(sock));
  }
}

}  // namespace papisim::sim
