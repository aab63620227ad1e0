// cross-node-escape fixtures: three escape shapes (store into a
// foreign node-owned object, address into a carrier field, address
// passed to a foreign object's method), the store shape again through
// a class seeded only by its node-owned annotation, and an own-field
// store, a value copy and an unseeded class as near-miss negatives.
#include "node/owned.hh"

namespace fix
{

void
Peer::link(Peer &other)
{
    other.back_ = this; // escape: this crosses into the other node
}

void
Peer::attach()
{
    self_ = this; // negative: own-field store stays intra-node
}

void
Peer::fill(Packet &pkt, int n)
{
    pkt.len = n; // negative: a value copy travels, not an address
    pkt.window = &scratch_.data[0]; // escape: pointer rides the packet
}

void
Peer::send(Peer &other)
{
    other.stash(&scratch_); // escape: owned address to a foreign method
}

void
Peer::stash(Buf *b)
{
    loan_ = b;
}

void
Port::pair(Port &other)
{
    other.peer_ = this; // escape: Port is node-owned by its seed
}

void
Loose::pair(Loose &other)
{
    other.peer_ = this; // negative: Loose is not node-owned
}

} // namespace fix
