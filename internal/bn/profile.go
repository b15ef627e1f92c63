package bn

import (
	"sync/atomic"
	"time"

	"sslperf/internal/perf"
)

// Function names used in profiles, matching the OpenSSL symbols the
// paper's Table 8 reports so the regenerated table is directly
// comparable.
const (
	fnMulAddWords    = "bn_mul_add_words"
	fnSubWords       = "bn_sub_words"
	fnAddWords       = "bn_add_words"
	fnMulWords       = "bn_mul_words"
	fnFromMontgomery = "BN_from_montgomery"
	fnUsub           = "BN_usub"
	fnCopy           = "BN_copy"
	fnSqr            = "BN_sqr"
	fnMul            = "BN_mul"
	fnDiv            = "BN_div"
	fnModExp         = "BN_mod_exp"
	fnCleanse        = "OPENSSL_cleanse"
)

// The profiler attributes *exclusive* (self) time to each bn function,
// the way a flat Oprofile report does: time spent in a callee is
// charged to the callee, not the caller. That is what makes the
// paper's Table 8 read the way it does — BN_from_montgomery's inner
// loop is bn_mul_add_words, so the loop's time shows up under
// bn_mul_add_words and only the remainder under BN_from_montgomery.
//
// Profiling is process-global and meant for single-goroutine
// experiment runs, like the paper's: the frame stack is not safe for
// concurrent use. The enabled flag is atomic, so arithmetic on other
// goroutines while no profile runs (concurrent handshakes, batch-RSA
// workers) only ever reads it.
type profiler struct {
	enabled atomic.Bool
	stack   []profFrame
	b       *perf.Breakdown
	// overhead is the calibrated cost of one enter/exit pair that is
	// NOT captured between the pair's two timestamps (and therefore
	// would otherwise be charged to the caller's self time).
	overhead time.Duration
}

type profFrame struct {
	name  string
	start time.Time
	child time.Duration
}

var prof profiler

// StartProfile begins collecting an exclusive-time function profile.
// It returns the breakdown that will accumulate results; read it after
// StopProfile. Starting while already started resets the profile.
func StartProfile() *perf.Breakdown {
	calibrateOnce()
	prof.b = perf.NewBreakdown()
	prof.stack = prof.stack[:0]
	prof.enabled.Store(true)
	return prof.b
}

var calibrated bool

// calibrateOnce measures the uncaptured per-call cost of the
// enter/exit pair so it can be credited back to callees instead of
// inflating callers, the standard instrumenting-profiler compensation.
func calibrateOnce() {
	if calibrated {
		return
	}
	calibrated = true
	prof.b = perf.NewBreakdown()
	prof.stack = prof.stack[:0]
	prof.enabled.Store(true)
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		profEnter("calibration")
		profExit()
	}
	wall := time.Since(start)
	captured := prof.b.Elapsed("calibration")
	prof.enabled.Store(false)
	if wall > captured {
		prof.overhead = (wall - captured) / n
	}
}

// StopProfile stops collecting. The breakdown returned by StartProfile
// holds the accumulated exclusive times.
func StopProfile() {
	prof.enabled.Store(false)
	prof.stack = prof.stack[:0]
}

// ProfileEnabled reports whether a profile is being collected.
func ProfileEnabled() bool { return prof.enabled.Load() }

func profEnter(name string) {
	if !prof.enabled.Load() {
		return
	}
	prof.stack = append(prof.stack, profFrame{name: name, start: time.Now()})
}

func profExit() {
	if prof.enabled.Load() {
		profPop()
	}
}

// profPop closes the innermost frame; kept out of profExit so the
// disabled path inlines into the kernels.
func profPop() {
	if len(prof.stack) == 0 {
		return
	}
	top := prof.stack[len(prof.stack)-1]
	prof.stack = prof.stack[:len(prof.stack)-1]
	total := time.Since(top.start)
	self := total - top.child
	if self < 0 {
		self = 0
	}
	prof.b.Add(top.name, self)
	if len(prof.stack) > 0 {
		prof.stack[len(prof.stack)-1].child += total + prof.overhead
	}
}
