// cross-node-escape fixture corpus: Node owns Peer by value, Port is
// node-owned only through its seed annotation, Loose has Port's shape
// without one, and Packet is the carrier type messages travel in.
// escape.cc seeds the findings and near-miss negatives.
#ifndef SHRIMP_TESTS_ANALYZE_FIXTURES_SRC_NODE_OWNED_HH
#define SHRIMP_TESTS_ANALYZE_FIXTURES_SRC_NODE_OWNED_HH

namespace fix
{

struct Packet
{
    int len = 0;
    char *window = nullptr;
};

struct Buf
{
    char data[64];
};

class Peer
{
  public:
    void link(Peer &other);
    void attach();
    void fill(Packet &pkt, int n);
    void send(Peer &other);
    void stash(Buf *b);

  private:
    Peer *back_ = nullptr;
    Peer *self_ = nullptr;
    Buf *loan_ = nullptr;
    Buf scratch_;
};

/** Created per node by a program, never held by Node. */
class Port
{
    // analyze: node-owned — one per process, on its node
  public:
    void pair(Port &other);

  private:
    Port *peer_ = nullptr;
};

/** Port's shape without the seed: not node-owned, never checked. */
class Loose
{
  public:
    void pair(Loose &other);

  private:
    Loose *peer_ = nullptr;
};

class Node
{
  private:
    Peer peer_;
};

} // namespace fix

#endif // SHRIMP_TESTS_ANALYZE_FIXTURES_SRC_NODE_OWNED_HH
