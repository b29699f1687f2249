// Package mp is a message-passing runtime: the subset of MPI the
// paper's code uses, rebuilt on goroutines. Ranks execute a rank
// function concurrently; point-to-point messages match on (source,
// tag) with eager buffering; the barrier and the allreduce (blocking or
// split-phase) reduce deterministically in rank order; MPI-3 node-shared
// windows let ranks on one SMP node load each other's storage between
// fences. The barrier, the allreduce and the window fence are one
// rendezvous (coll.go). DimsCreate mirrors MPI_Dims_create for the
// process grid.
//
// Every rank carries a virtual clock. Compute phases advance it
// explicitly; receiving a message advances it to at least the sender's
// send time plus the Network's modelled cost; collectives equalise the
// team. Because clock propagation follows message causality only, the
// modelled times are deterministic regardless of goroutine scheduling,
// while the same run still exhibits real parallelism for wall-clock
// benchmarking.
package mp

import "math"

// Network models the cost and topology of the interconnect. The
// machine package provides implementations for the paper's platforms;
// tests use the zero-cost network.
type Network interface {
	// MsgCost returns the modelled seconds for a point-to-point
	// message of the given payload size between two ranks.
	MsgCost(from, to, bytes int) float64
	// SameNode reports whether two ranks share an SMP node, which
	// determines the message's link class in the counters.
	SameNode(a, b int) bool
	// BarrierCost returns the modelled seconds for a p-rank barrier.
	BarrierCost(p int) float64
	// CollectiveCost returns the modelled seconds for a p-rank
	// reduction/broadcast of the given payload.
	CollectiveCost(p, bytes int) float64
}

// ZeroNetwork is a free, single-node network: every operation costs
// nothing and all ranks share a node. Correctness tests run on it.
type ZeroNetwork struct{}

func (ZeroNetwork) MsgCost(from, to, bytes int) float64 { return 0 }
func (ZeroNetwork) SameNode(a, b int) bool              { return true }
func (ZeroNetwork) BarrierCost(p int) float64           { return 0 }
func (ZeroNetwork) CollectiveCost(p, bytes int) float64 { return 0 }

// LatBwNetwork is a LogP-style two-level network: ranks are grouped
// into nodes of CPUsPerNode consecutive ranks; messages pay latency
// plus bytes/bandwidth with separate intra- and inter-node parameters.
// The machine package builds the paper's three platforms from it.
type LatBwNetwork struct {
	CPUsPerNode int     // ranks per SMP node (>=1)
	IntraLat    float64 // seconds, same node
	IntraBw     float64 // bytes/second, same node
	InterLat    float64 // seconds, across nodes
	InterBw     float64 // bytes/second, across nodes
}

// node returns the SMP node of a rank.
func (n LatBwNetwork) node(rank int) int {
	if n.CPUsPerNode <= 1 {
		return rank
	}
	return rank / n.CPUsPerNode
}

// SameNode implements Network.
func (n LatBwNetwork) SameNode(a, b int) bool { return n.node(a) == n.node(b) }

// MsgCost implements Network.
func (n LatBwNetwork) MsgCost(from, to, bytes int) float64 {
	if from == to {
		return 0 // self-messages are a memcpy; charged as compute
	}
	if n.SameNode(from, to) {
		return n.IntraLat + float64(bytes)/n.IntraBw
	}
	return n.InterLat + float64(bytes)/n.InterBw
}

// BarrierCost implements Network: a log-depth dissemination barrier
// over the slowest link class in use.
func (n LatBwNetwork) BarrierCost(p int) float64 {
	if p <= 1 {
		return 0
	}
	lat := n.IntraLat
	if p > n.CPUsPerNode && n.CPUsPerNode >= 1 {
		lat = n.InterLat
	}
	return math.Ceil(math.Log2(float64(p))) * lat
}

// CollectiveCost implements Network: a binomial tree of p ranks moving
// the payload at each level.
func (n LatBwNetwork) CollectiveCost(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	lat, bw := n.IntraLat, n.IntraBw
	if p > n.CPUsPerNode && n.CPUsPerNode >= 1 {
		lat, bw = n.InterLat, n.InterBw
	}
	levels := math.Ceil(math.Log2(float64(p)))
	return levels * (lat + float64(bytes)/bw)
}
