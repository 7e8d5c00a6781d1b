#include "cluster/hash_ring.hpp"

#include "common/fnv.hpp"
#include "common/logging.hpp"

namespace vboost::cluster {

namespace {

/** FNV-1a of the bytes of `s`. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = fnv::kTruncatedBasis;
    fnv::mixBytes(h, s);
    return h;
}

/**
 * Murmur3 finalizer. Raw FNV-1a of short similar keys ("tenant-0007"
 * vs "tenant-0008") differs mostly in the low bits, so such keys — and
 * a node's virtual points — cluster in one narrow arc of the ring and
 * one node ends up owning every key. The finalizer's avalanche spreads
 * them uniformly over the 64-bit circle.
 */
std::uint64_t
fmix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Ring position of virtual node `k` of `node`. */
std::uint64_t
pointHash(const std::string &node, int k)
{
    // "node#k" without the string round trip: hash the name, then fold
    // in the replica index byte-wise.
    std::uint64_t h = fnv1a(node);
    fnv::mixBytes(h, "#");
    fnv::mixU64(h, static_cast<std::uint64_t>(k), 4);
    return fmix64(h);
}

} // namespace

HashRing::HashRing(HashRingConfig cfg) : cfg_(cfg)
{
    if (cfg_.virtualNodes < 1)
        fatal("HashRing: virtualNodes must be >= 1, got ",
              cfg_.virtualNodes);
}

std::uint64_t
HashRing::hashKey(const std::string &key)
{
    return fmix64(fnv1a(key));
}

void
HashRing::addNode(const std::string &node)
{
    if (node.empty())
        fatal("HashRing::addNode: empty node name");
    if (!members_.insert(node).second)
        fatal("HashRing::addNode: duplicate node '", node, "'");
    for (int k = 0; k < cfg_.virtualNodes; ++k) {
        // On a point collision the name-ordered winner keeps the slot,
        // independent of insertion order, so the ring stays a pure
        // function of the node set.
        const std::uint64_t point = pointHash(node, k);
        auto [it, inserted] = ring_.emplace(point, node);
        if (!inserted && node < it->second)
            it->second = node;
    }
}

void
HashRing::removeNode(const std::string &node)
{
    if (members_.erase(node) == 0)
        fatal("HashRing::removeNode: unknown node '", node, "'");
    for (int k = 0; k < cfg_.virtualNodes; ++k) {
        const auto it = ring_.find(pointHash(node, k));
        if (it == ring_.end())
            continue;
        // A collision slot may be owned by the name-ordered winner;
        // re-resolve it among the remaining colliders (rebuilding from
        // the member set keeps removal history-independent).
        ring_.erase(it);
    }
    // Re-add any points of surviving members that `node` had shadowed
    // via the collision rule above.
    for (const std::string &member : members_) {
        for (int k = 0; k < cfg_.virtualNodes; ++k) {
            const std::uint64_t point = pointHash(member, k);
            auto [it, inserted] = ring_.emplace(point, member);
            if (!inserted && member < it->second)
                it->second = member;
        }
    }
}

bool
HashRing::hasNode(const std::string &node) const
{
    return members_.count(node) != 0;
}

std::vector<std::string>
HashRing::nodes() const
{
    return {members_.begin(), members_.end()};
}

const std::string &
HashRing::nodeFor(const std::string &key) const
{
    if (ring_.empty())
        fatal("HashRing::nodeFor: empty ring");
    auto it = ring_.lower_bound(hashKey(key));
    if (it == ring_.end())
        it = ring_.begin(); // wrap past the top of the ring
    return it->second;
}

std::vector<std::string>
HashRing::replicasFor(const std::string &key, std::size_t replicas) const
{
    if (ring_.empty())
        fatal("HashRing::replicasFor: empty ring");
    std::vector<std::string> group;
    const std::size_t want = std::min(replicas, members_.size());
    auto it = ring_.lower_bound(hashKey(key));
    // Walk clockwise collecting distinct nodes; bounded by one full
    // lap, which visits every virtual node once.
    for (std::size_t step = 0; step < ring_.size() && group.size() < want;
         ++step, ++it) {
        if (it == ring_.end())
            it = ring_.begin();
        bool seen = false;
        for (const std::string &g : group)
            seen = seen || g == it->second;
        if (!seen)
            group.push_back(it->second);
    }
    return group;
}

std::uint64_t
HashRing::fingerprint() const
{
    std::uint64_t h = fnv::kTruncatedBasis;
    fnv::mixU64(h, static_cast<std::uint64_t>(cfg_.virtualNodes));
    fnv::mixU64(h, ring_.size());
    for (const auto &[point, node] : ring_) {
        fnv::mixU64(h, point);
        fnv::mixBytes(h, node);
    }
    return h;
}

} // namespace vboost::cluster
