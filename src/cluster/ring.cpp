#include "cluster/ring.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/fnv.hpp"

namespace pushpart {

HashRing::HashRing(int nodeCount, int vnodesPerNode)
    : nodeCount_(nodeCount), vnodesPerNode_(vnodesPerNode) {
  if (nodeCount < 1)
    throw std::invalid_argument("HashRing: need at least one node, got " +
                                std::to_string(nodeCount));
  if (vnodesPerNode < 1)
    throw std::invalid_argument("HashRing: need at least one vnode, got " +
                                std::to_string(vnodesPerNode));
  points_.reserve(static_cast<std::size_t>(nodeCount) *
                  static_cast<std::size_t>(vnodesPerNode));
  for (int node = 0; node < nodeCount; ++node)
    for (int v = 0; v < vnodesPerNode; ++v)
      // Ring points reuse the cache's FNV-1a so the whole routing story is
      // one hash function. Collisions across (node, vnode) labels are
      // broken deterministically by the (hash, node) sort below.
      points_.push_back({fnv1a("node " + std::to_string(node) + " vnode " +
                               std::to_string(v)),
                         node});
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
  });
}

std::vector<int> HashRing::ownersFor(std::uint64_t keyHash, int k) const {
  k = std::min(k, nodeCount_);
  std::vector<int> owners;
  if (k < 1) return owners;
  owners.reserve(static_cast<std::size_t>(k));
  // First point at or clockwise of the key's hash (wrapping).
  std::size_t at = static_cast<std::size_t>(
      std::lower_bound(points_.begin(), points_.end(), keyHash,
                       [](const Point& p, std::uint64_t h) {
                         return p.hash < h;
                       }) -
      points_.begin());
  for (std::size_t step = 0;
       step < points_.size() && owners.size() < static_cast<std::size_t>(k);
       ++step) {
    const int node = points_[(at + step) % points_.size()].node;
    if (std::find(owners.begin(), owners.end(), node) == owners.end())
      owners.push_back(node);
  }
  return owners;
}

bool HashRing::owns(int node, std::uint64_t keyHash, int k) const {
  const std::vector<int> owners = ownersFor(keyHash, k);
  return std::find(owners.begin(), owners.end(), node) != owners.end();
}

std::vector<double> HashRing::primaryShares() const {
  std::vector<double> shares(static_cast<std::size_t>(nodeCount_), 0.0);
  const double whole = 18446744073709551616.0;  // 2^64
  for (std::size_t i = 0; i < points_.size(); ++i) {
    // The arc ending at point i (clockwise from the previous point) belongs
    // to point i's node.
    const std::uint64_t hi = points_[i].hash;
    const std::uint64_t lo = points_[(i + points_.size() - 1) % points_.size()].hash;
    const double arc =
        i == 0 ? static_cast<double>(hi) + (whole - static_cast<double>(lo))
               : static_cast<double>(hi - lo);
    shares[static_cast<std::size_t>(points_[i].node)] += arc / whole;
  }
  return shares;
}

}  // namespace pushpart
