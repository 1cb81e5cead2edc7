// Package cluster is the federation layer of mapserve: a consistent-hash
// ring over canonical problem keys plus the HTTP peer protocol that lets
// a fleet of mapserve nodes behave as one cache.
//
// Sharding model. Every cached query — map or Pareto — reduces (in
// internal/service) to a canonical problem key that is stable under
// axis-permutation symmetry — the same identity the single-node cache
// and singleflight already use.
// The ring assigns each key one owner among the members; the owner is
// the only node that ever *searches* for that key. A non-owner that
// misses its local cache forwards the canonical problem to the owner
// over POST /peer/v1/lookup, then caches the returned result locally
// (forward-then-fill), so repeated traffic for a key is absorbed
// anywhere in the cluster after the first round trip.
//
// Exactly-one-search. The owner runs every lookup — its own clients'
// and its peers' — through one singleflight group keyed by the same
// canonical key, so N concurrent clients spread over M nodes cost one
// search cluster-wide. Requests never hop more than once: peer lookups
// carry the X-Mapserve-Hop header and a receiving node always answers
// locally, searching itself if it must, even when its membership view
// says someone else owns the key. A hop count beyond MaxHops is a
// protocol error (508), making forwarding loops impossible even under
// disagreeing membership.
//
// Failure model. Membership is static (flags), and health is tracked
// passively from peer request outcomes. When the owner of a key is
// unreachable the forwarder degrades to a local search — availability
// over strict dedup — and afterwards pushes the result to the owner via
// POST /peer/v1/fill (best effort) so the cluster converges back to
// one-copy-per-owner once the owner returns.
//
// Workload-agnostic transport. One lookup leg and one fill leg serve
// every workload. A body names its workload in Kind and carries the
// canonical request and the result as opaque JSON, which the service
// layer decodes and certifies; this package never interprets them.
package cluster
