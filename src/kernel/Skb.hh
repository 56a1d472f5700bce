/**
 * @file
 * Socket model (Sec. 4.2.2).
 *
 * The NetDIMM driver adds sock->skb_zone to the stock structure:
 * after the first transmission the connection remembers which NET(i)
 * zone serves it, so subsequent SKBs and paged buffers allocate
 * there directly (fast path). NetdimmDriver::send() decides the
 * per-packet COPY_NEEDED slow path from this zone and the packet's
 * source buffer.
 */

#ifndef NETDIMM_KERNEL_SKB_HH
#define NETDIMM_KERNEL_SKB_HH

#include <cstdint>
#include <memory>

#include "kernel/Zones.hh"

namespace netdimm
{

/** Per-connection state ("struct sock"). */
struct Socket
{
    std::uint64_t id = 0;
    /** Zone serving this connection's SKBs; Normal until learned. */
    MemZone skbZone = MemZone::Normal;
};

using SocketPtr = std::shared_ptr<Socket>;

} // namespace netdimm

#endif // NETDIMM_KERNEL_SKB_HH
