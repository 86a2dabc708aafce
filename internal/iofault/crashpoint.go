package iofault

import (
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
)

// Crashpoints are named kill-the-process points compiled into every
// durable-write boundary. In normal operation they cost one atomic load
// of a nil-ish string comparison and do nothing. A chaos harness re-execs
// the process (tesimd, or a test child) with
//
//	TESIM_CRASHPOINT=<name> [TESIM_CRASHPOINT_HITS=<n>]
//
// and the n-th time execution reaches Crashpoint(name) the process
// SIGKILLs itself — no deferred cleanup, no flushing, the closest
// userspace gets to pulling the plug. Sweeping every registered point and
// asserting the restart invariants ("every acknowledged result survives
// byte-identical; nothing acked is re-executed; nothing corrupt is
// falsely accepted") is FoundationDB-style deterministic crash testing
// scaled down to this repo.
const (
	// CPAppendBeforeWrite fires before a journal record's bytes reach the
	// file: the record must simply not exist after restart.
	CPAppendBeforeWrite = "journal.append.before-write"
	// CPAppendAfterWrite fires between write(2) and fsync: the record is
	// in the page cache but was never acknowledged; replay may see a torn
	// or intact-but-unacked line and must cope with either.
	CPAppendAfterWrite = "journal.append.after-write"
	// CPAppendAfterSync fires after fsync but before the append returns:
	// the record is durable but the caller never saw the ack.
	CPAppendAfterSync = "journal.append.after-sync"
	// CPSealBeforeSync fires after the torn-line seal newline is written
	// but before it is fsynced.
	CPSealBeforeSync = "journal.seal.before-sync"
	// CPSealAfterSync fires once the seal is durable, before OpenJournal
	// returns.
	CPSealAfterSync = "journal.seal.after-sync"
	// CPQuarantineBeforeWrite fires as a corrupt record is being copied to
	// the .corrupt sidecar during replay.
	CPQuarantineBeforeWrite = "journal.quarantine.before-write"
	// CPPublishBeforeAppend fires when the runner pool has decided to
	// persist a fresh outcome, before the journal append begins.
	CPPublishBeforeAppend = "pool.publish.before-append"
	// CPPublishAfterAppend fires after the pool's journal append returned
	// (record durable) but before the outcome is published.
	CPPublishAfterAppend = "pool.publish.after-append"
)

// EnvCrashpoint and EnvCrashpointHits are the environment variables that
// arm a crashpoint in a child process.
const (
	EnvCrashpoint     = "TESIM_CRASHPOINT"
	EnvCrashpointHits = "TESIM_CRASHPOINT_HITS"
)

// Points returns every registered crashpoint name, in the order a chaos
// sweep should visit them. scripts/chaos.sh discovers them via
// `tesimd -list-crashpoints`.
func Points() []string {
	return []string{
		CPAppendBeforeWrite,
		CPAppendAfterWrite,
		CPAppendAfterSync,
		CPSealBeforeSync,
		CPSealAfterSync,
		CPQuarantineBeforeWrite,
		CPPublishBeforeAppend,
		CPPublishAfterAppend,
	}
}

var (
	armedPoint string
	armedHits  int64 = 1
	hitCount   atomic.Int64
)

func init() {
	armedPoint = os.Getenv(EnvCrashpoint)
	if v := os.Getenv(EnvCrashpointHits); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			armedHits = int64(n)
		}
	}
}

// Crashpoint kills the process when the named point is armed and its hit
// budget is exhausted. It is a no-op (one string compare) otherwise.
func Crashpoint(name string) {
	if armedPoint == "" || armedPoint != name {
		return
	}
	if hitCount.Add(1) < armedHits {
		return
	}
	// SIGKILL ourselves: no deferred closes, no buffered flushes — the
	// nearest userspace approximation of a power cut. The fallback exit
	// code matches a SIGKILLed process's 128+9.
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	os.Exit(137)
}

// Armed reports the armed crashpoint name ("" when none); the chaos
// harness's child logs it for debuggability.
func Armed() string { return armedPoint }
