package crowd

import "fmt"

// QueryKind distinguishes the HIT types the algorithms issue.
type QueryKind int

const (
	// PointQuery asks for the attribute values of one image.
	PointQuery QueryKind = iota
	// SetQuery asks whether a set contains at least one group member.
	SetQuery
	// ReverseSetQuery asks whether a set contains at least one image
	// NOT in the group (used by Classifier-Coverage's partitioning).
	ReverseSetQuery

	numQueryKinds
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case PointQuery:
		return "point"
	case SetQuery:
		return "set"
	case ReverseSetQuery:
		return "reverse-set"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// Pricing computes the payout of one assignment of a HIT. The paper
// uses the fixed-price model, so the default implementation ignores
// the HIT entirely.
type Pricing interface {
	// AssignmentPrice returns the worker payout for one assignment of
	// a HIT of the given kind and set size.
	AssignmentPrice(kind QueryKind, setSize int) float64
}

// FixedPricing pays the same price per assignment regardless of HIT
// contents — the model the paper adopts (each HIT $0.10, later $0.05,
// with no effect on acceptance).
type FixedPricing struct{ Price float64 }

// AssignmentPrice implements Pricing.
func (p FixedPricing) AssignmentPrice(QueryKind, int) float64 { return p.Price }

// Ledger accumulates the audit cost: the paper's single performance
// metric is the number of HITs, and dollar cost follows from it under
// fixed pricing (plus the platform's fee — MTurk charged the authors
// 20 %: $8.82 on $44.10).
type Ledger struct {
	hits        [numQueryKinds]int
	assignments int
	workerPaid  float64
	feeRate     float64
}

// NewLedger creates a ledger with the given platform fee rate
// (e.g. 0.20 for MTurk's 20 %).
func NewLedger(feeRate float64) *Ledger {
	return &Ledger{feeRate: feeRate}
}

// Record adds one HIT with the given number of paid assignments. The
// kind must be one of PointQuery, SetQuery and ReverseSetQuery.
func (l *Ledger) Record(kind QueryKind, assignments int, pricePer float64) {
	l.hits[kind]++
	l.assignments += assignments
	l.workerPaid += float64(assignments) * pricePer
}

// HITs returns the number of HITs of one kind, 0 for an unknown kind.
func (l *Ledger) HITs(kind QueryKind) int {
	if kind < 0 || kind >= numQueryKinds {
		return 0
	}
	return l.hits[kind]
}

// TotalHITs returns the total number of HITs issued — the paper's
// cost metric.
func (l *Ledger) TotalHITs() int {
	total := 0
	for _, n := range l.hits {
		total += n
	}
	return total
}

// Assignments returns the number of paid assignments (HITs times
// redundancy).
func (l *Ledger) Assignments() int { return l.assignments }

// WorkerCost returns the total paid to workers.
func (l *Ledger) WorkerCost() float64 { return l.workerPaid }

// PlatformFee returns the platform's cut.
func (l *Ledger) PlatformFee() float64 { return l.workerPaid * l.feeRate }

// TotalCost returns worker payouts plus platform fee.
func (l *Ledger) TotalCost() float64 { return l.workerPaid + l.PlatformFee() }

// Reset clears all counters, keeping the fee rate.
func (l *Ledger) Reset() {
	l.hits = [numQueryKinds]int{}
	l.assignments = 0
	l.workerPaid = 0
}

// Snapshot returns current totals for reporting.
func (l *Ledger) Snapshot() LedgerSnapshot {
	return LedgerSnapshot{
		PointHITs:      l.HITs(PointQuery),
		SetHITs:        l.HITs(SetQuery),
		ReverseSetHITs: l.HITs(ReverseSetQuery),
		TotalHITs:      l.TotalHITs(),
		Assignments:    l.assignments,
		WorkerCost:     l.workerPaid,
		PlatformFee:    l.PlatformFee(),
		TotalCost:      l.TotalCost(),
	}
}

// LedgerSnapshot is an immutable copy of ledger totals.
type LedgerSnapshot struct {
	PointHITs      int
	SetHITs        int
	ReverseSetHITs int
	TotalHITs      int
	Assignments    int
	WorkerCost     float64
	PlatformFee    float64
	TotalCost      float64
}

// String formats the snapshot for logs.
func (s LedgerSnapshot) String() string {
	return fmt.Sprintf("HITs=%d (point=%d set=%d reverse=%d) assignments=%d cost=$%.2f (+$%.2f fee)",
		s.TotalHITs, s.PointHITs, s.SetHITs, s.ReverseSetHITs, s.Assignments, s.WorkerCost, s.PlatformFee)
}
