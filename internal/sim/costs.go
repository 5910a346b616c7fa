package sim

// FreqGHz is the simulated clock frequency; it converts cycles to
// wall-clock time when reporting throughput.
const FreqGHz = 2.3

// The cycle-cost table of the simulated machine. The values are plausible
// for a ~2.3 GHz aggressive out-of-order part of the Rock era; they are not
// measurements of Rock itself. Experiments care about the *shape* of
// results, which is governed by the ratios here (an L2 miss is two orders of
// magnitude more expensive than an L1 hit, a CAS costs tens of cycles, ...).
const (
	// costOp is the base cost of one simulated instruction (ALU work, issue).
	costOp int64 = 1
	// costL1Hit is the additional cost of a load/store that hits in the L1.
	costL1Hit int64 = 2
	// costL2Hit is the additional cost of an access that misses L1, hits L2.
	costL2Hit int64 = 24
	// costMemAccess is the additional cost of an access that misses both
	// caches.
	costMemAccess int64 = 220
	// costCASExtra is the additional cost of an atomic compare-and-swap
	// beyond the underlying memory access.
	costCASExtra int64 = 30
	// costMispredict is the pipeline-refill penalty of a mispredicted branch.
	costMispredict int64 = 16
	// costChkpt is the cost of taking a register checkpoint (chkpt
	// instruction).
	costChkpt int64 = 6
	// costCommitBase is the fixed cost of committing a transaction.
	costCommitBase int64 = 14
	// costCommitPerStore is the per-store cost of draining the store queue
	// at commit.
	costCommitPerStore int64 = 2
	// costAbortPenalty is the pipeline-flush/restore cost of an aborted
	// transaction, charged before control reaches the fail address.
	costAbortPenalty int64 = 24
	// costTLBWalk is the cost of a hardware table walk that services a TLB
	// miss outside a transaction.
	costTLBWalk int64 = 140
	// costPageFault is the cost of the OS servicing a page fault (first
	// touch of an unmapped or read-only page outside a transaction).
	costPageFault int64 = 1800

	// The three costs below price the non-default HTM design points
	// (Config.HTM); none is charged under the all-default Rock design.

	// costLogWrite is the cost of appending one undo-log entry under eager
	// version management (HTMDesign.VM = VMEager), charged per
	// transactional store; an abort re-pays it per rolled-back entry.
	costLogWrite int64 = 3
	// costNackStall is the stall window a requester waits after being
	// NACKed by a conflicting holder under committer-wins or timestamp
	// conflict resolution, before re-checking the line once.
	costNackStall int64 = 40
	// costStickyEvict is the cost of spilling a transactionally marked line
	// into the bounded sticky overflow set (HTMDesign.StickyLines > 0)
	// instead of aborting on its L1 displacement.
	costStickyEvict int64 = 12
)
