package core

import "context"

// StackConfig declares an oracle middleware stack: which layers to
// install over a base oracle. Every field is optional; the zero value
// is the bare base oracle.
type StackConfig struct {
	// Budget, when non-nil, installs the budget governor. An inactive
	// budget (no positive cap; negative caps count as none) still
	// counts spend but never refuses a query.
	Budget *Budget
	// Journal and Replay install the journaling middleware when either
	// is set: committed rounds append to Journal (nil replays without
	// recording), and Replay's records answer the first rounds without
	// touching the layers below.
	Journal RoundJournal
	Replay  []RoundRecord
	// Trust, when non-nil, installs the trust middleware.
	Trust *TrustConfig
	// Cache installs the deduplicating query cache.
	Cache bool
	// Ctx is checked by the journaling middleware before every round;
	// nil means context.Background(). Without a journal it is unused.
	Ctx context.Context
}

// Stack is an assembled middleware stack. Top is the oracle audits
// query through; each layer handle is nil when its layer is absent.
type Stack struct {
	Top      Oracle
	Cache    *CachingOracle
	Trust    *TrustOracle
	Journal  *JournalingOracle
	Governor *BudgetedOracle
}

// NewStack assembles the layers cfg declares over base in the one
// legal order, top to bottom:
//
//	cache -> trust -> journal -> governor -> platform
//
// Each position is forced by what the layer needs from its neighbours:
//
//   - The governor sits directly over the platform, so it charges
//     exactly the HITs the crowd is paid for: cache hits above it
//     answer for free, and a refused query never reaches the crowd.
//   - The journal sits above the governor, so each record snapshots
//     the governor's ledger and replay restores it: a resumed audit
//     never re-charges a paid HIT.
//   - Trust sits above the journal, so probe-augmented rounds are
//     journaled and a resumed audit re-issues the identical probes,
//     restoring every trust score in-process. The answer feed itself is
//     process-local, so a fresh process restores verdicts and the probe
//     schedule exactly but starts trust evidence empty.
//   - The cache sits on top, so duplicates never reach trust, the
//     journal or the governor, and it re-fills deterministically from
//     replayed answers.
//
// Journal and trust replay or schedule on the committed round
// sequence, which only the lockstep scheduler makes a pure function of
// committed answers; Lockstep reports when a caller must run it. The
// classifier engine narrows its speculative rounds to the governor's
// headroom wherever the governor sits in the stack. The only error is
// an invalid trust policy or probe battery.
func NewStack(base Oracle, cfg StackConfig) (*Stack, error) {
	st := &Stack{Top: base}
	if cfg.Budget != nil {
		st.Governor = NewBudgetedOracle(st.Top, *cfg.Budget)
		st.Top = st.Governor
	}
	if cfg.Journal != nil || cfg.Replay != nil {
		st.Journal = NewJournalingOracle(st.Top, cfg.Journal, cfg.Replay, st.Governor).SetContext(cfg.Ctx)
		st.Top = st.Journal
	}
	if cfg.Trust != nil {
		t, err := NewTrustOracle(st.Top, *cfg.Trust)
		if err != nil {
			return nil, err
		}
		st.Trust = t
		st.Top = t
	}
	if cfg.Cache {
		st.Cache = NewCachingOracle(st.Top)
		st.Top = st.Cache
	}
	return st, nil
}

// Lockstep reports whether audits through the stack must run the
// lockstep scheduler: true when a journal or trust layer is present.
func (s *Stack) Lockstep() bool { return s.Journal != nil || s.Trust != nil }

// governorOf finds the budget governor under o by walking down through
// the cache, trust and journal layers; nil when there is none.
func governorOf(o Oracle) *BudgetedOracle {
	for {
		switch l := o.(type) {
		case *BudgetedOracle:
			return l
		case *CachingOracle:
			o = l.inner
		case *TrustOracle:
			o = l.inner
		case *JournalingOracle:
			o = l.inner
		default:
			return nil
		}
	}
}
