// Package trace collects the event counts the virtual-platform cost
// models consume. Every rank and every thread owns its own Counters so
// the hot loops never synchronise; totals are merged explicitly at the
// end of a phase.
//
// The counters are deliberately physical rather than temporal: the same
// simulation run can be re-costed on any virtual platform (T3E, Sun,
// Compaq) without re-executing, which is how the experiment harness
// sweeps platforms cheaply.
package trace

// Counters accumulates per-owner event counts for one phase of a run.
type Counters struct {
	// Force loop.
	ForceEvals   int64 // pairwise force evaluations (one per link visit)
	LinkVisits   int64 // links traversed
	LinksTested  int64 // links the host's distance pass tested: LinkVisits, less what a contact-range view left out
	Contacts     int64 // pairs found within force range (sqrt+inverse paid)
	ForceUpdates int64 // accumulations into the global force array (2/link)

	// Position update.
	PosUpdates int64 // particle position/velocity updates

	// Link-list maintenance.
	LinkBuilds    int64 // number of list (re)constructions
	CellBinOps    int64 // particles binned into cells
	PairChecks    int64 // candidate pairs distance-tested during build
	ReorderMoves  int64 // particles permuted by cache reordering
	MigratedParts int64 // particles moved to a new home block/rank

	// Dynamic load balancing.
	Rebalances  int64 // rebalance epochs that moved at least one block
	BlocksMoved int64 // whole blocks shipped to a new rank
	CutShifts   int64 // ORB cut planes moved by adopted repartitions

	// Message passing.
	MsgsSent     int64 // point-to-point messages sent
	BytesSent    int64 // payload bytes sent
	MsgsRejected int64 // duplicate messages discarded by integrity checks
	MsgsIntra    int64 // messages whose endpoints share an SMP node
	BytesIntra   int64 // bytes on intra-node messages
	Collectives  int64 // collective operations joined
	Barriers     int64 // message-passing barriers joined

	// Shared-memory windows (mpism mode).
	WinFences    int64 // window fence epochs joined
	WinLoadBytes int64 // bytes loaded from node peers' shared windows

	// Shared memory.
	ParallelRegions int64 // fork/join regions entered
	TeamBarriers    int64 // intra-team barriers
	AtomicsTaken    int64 // force updates actually protected by a lock
	AtomicsAvoided  int64 // updates the conflict table proved private
	CriticalEnters  int64 // critical-section entries
	ReductionWords  int64 // words combined by array-reduction strategies
}

// Add merges other into c.
func (c *Counters) Add(other *Counters) {
	c.ForceEvals += other.ForceEvals
	c.LinkVisits += other.LinkVisits
	c.LinksTested += other.LinksTested
	c.Contacts += other.Contacts
	c.ForceUpdates += other.ForceUpdates
	c.PosUpdates += other.PosUpdates
	c.LinkBuilds += other.LinkBuilds
	c.CellBinOps += other.CellBinOps
	c.PairChecks += other.PairChecks
	c.ReorderMoves += other.ReorderMoves
	c.MigratedParts += other.MigratedParts
	c.Rebalances += other.Rebalances
	c.BlocksMoved += other.BlocksMoved
	c.CutShifts += other.CutShifts
	c.MsgsSent += other.MsgsSent
	c.BytesSent += other.BytesSent
	c.MsgsRejected += other.MsgsRejected
	c.MsgsIntra += other.MsgsIntra
	c.BytesIntra += other.BytesIntra
	c.Collectives += other.Collectives
	c.Barriers += other.Barriers
	c.WinFences += other.WinFences
	c.WinLoadBytes += other.WinLoadBytes
	c.ParallelRegions += other.ParallelRegions
	c.TeamBarriers += other.TeamBarriers
	c.AtomicsTaken += other.AtomicsTaken
	c.AtomicsAvoided += other.AtomicsAvoided
	c.CriticalEnters += other.CriticalEnters
	c.ReductionWords += other.ReductionWords
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// AtomicFraction returns the fraction of force updates that required a
// lock under the selected-atomic strategy. The paper reports this
// rising to ~50% (D=3) and ~25% (D=2) at the finest hybrid granularity.
func (c *Counters) AtomicFraction() float64 {
	total := c.AtomicsTaken + c.AtomicsAvoided
	if total == 0 {
		return 0
	}
	return float64(c.AtomicsTaken) / float64(total)
}
