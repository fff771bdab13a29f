package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"gdsiiguard/internal/durable"
	"gdsiiguard/internal/obs"
)

// WAL record types. A job's log is an ordered stream of these; replay folds
// them in order, so the newest record of each kind wins.
const (
	// recSpec is the job's submission: the full Spec plus submit time.
	// Always the first record of a fresh log.
	recSpec = "spec"
	// recState is one lifecycle transition (per attempt for running).
	recState = "state"
	// recCheckpoint is the latest exploration checkpoint blob, tagged with
	// the scope of the engine that wrote it.
	recCheckpoint = "checkpoint"
	// recResult is a finished job's payload, appended before the terminal
	// snapshot compacts the log (so a crash between the two still recovers
	// the result).
	recResult = "result"
	// recJob is the snapshot type: one self-contained jobSnapshot replacing
	// everything before it.
	recJob = "job"
)

// stateInterrupted is a persisted-only pseudo-state: the job was neither
// finished nor cancelled by a user, the process stopped (drain past its
// budget, crash). It is non-terminal on purpose — replay re-queues the job.
const stateInterrupted State = "interrupted"

// scopeLocal tags an nsga2.Checkpoint blob (via gdsiiguard.ExploreOptions),
// the one checkpoint form explore jobs resume from. Logs written by older
// servers may hold a checkpoint of another scope (the island-model
// cluster's "cluster" epoch checkpoints); the job ignores it and re-runs
// from generation 0.
const scopeLocal = "local"

type specRecord struct {
	Spec      Spec      `json:"spec"`
	Submitted time.Time `json:"submitted"`
}

type stateRecord struct {
	State   State     `json:"state"`
	Attempt int       `json:"attempt,omitempty"`
	Time    time.Time `json:"time"`
	Error   string    `json:"error,omitempty"`
}

type checkpointRecord struct {
	Scope string          `json:"scope"`
	Data  json.RawMessage `json:"data"`
}

type resultRecord struct {
	Result *Result `json:"result"`
}

// jobSnapshot is the compacted form of a whole log: everything replay needs
// in one record. Mid-run snapshots carry the latest checkpoint; terminal
// snapshots carry the result. The hardened layout artifact is deliberately
// absent — layouts are re-derivable by re-running the job and would bloat
// the store by orders of magnitude.
type jobSnapshot struct {
	Spec       Spec              `json:"spec"`
	Submitted  time.Time         `json:"submitted"`
	Started    time.Time         `json:"started,omitempty"`
	Finished   time.Time         `json:"finished,omitempty"`
	State      State             `json:"state"`
	Attempts   int               `json:"attempts,omitempty"`
	Error      string            `json:"error,omitempty"`
	Result     *Result           `json:"result,omitempty"`
	Checkpoint *checkpointRecord `json:"checkpoint,omitempty"`
}

// persistSubmit opens the job's log and writes the spec record. Called
// under m.mu before the job is enqueued; an error fails the submission —
// a durable manager must not accept work it cannot recover.
func (m *Manager) persistSubmit(job *Job) error {
	l, err := m.store.Log(job.ID)
	if err != nil {
		return fmt.Errorf("service: open job log: %w", err)
	}
	if err := l.Append(recSpec, specRecord{Spec: job.Spec, Submitted: job.submitted}); err != nil {
		return fmt.Errorf("service: persist job spec: %w", err)
	}
	job.wal = l
	return nil
}

// persistState appends one lifecycle transition, best-effort: losing a
// state record degrades recovery fidelity (the job replays as queued and
// re-runs), never correctness.
func (m *Manager) persistState(job *Job, state State, attempt int, errText string) {
	if job.wal == nil {
		return
	}
	rec := stateRecord{State: state, Attempt: attempt, Time: time.Now(), Error: errText}
	if err := job.wal.Append(recState, rec); err != nil {
		obs.Logger().Warn("service: persist state transition failed",
			"job", job.ID, "state", state, "error", err)
	}
}

// snapshotEvery is how many persisted checkpoints a job's WAL takes before
// it is compacted into one snapshot record.
const snapshotEvery = 8

// persistCheckpoint records the latest exploration checkpoint: always
// in-memory on the job, and in the WAL when the manager is durable. Every
// snapshotEvery-th checkpoint the log is compacted into a mid-run snapshot
// instead of growing unboundedly. The returned error aborts the exploration — a checkpoint
// the store cannot hold must not be silently skipped, or a crash would
// replay from a state older than the caller believes.
func (m *Manager) persistCheckpoint(job *Job, scope string, blob []byte) error {
	job.setCheckpoint(scope, blob)
	if job.wal == nil {
		return nil
	}
	if n := job.bumpCheckpointCount(); n%snapshotEvery == 0 {
		return job.wal.Snapshot(recJob, m.snapshotOf(job, scope, blob))
	}
	return job.wal.Append(recCheckpoint, checkpointRecord{Scope: scope, Data: blob})
}

// snapshotOf captures the job's current durable state (mid-run form when a
// checkpoint is supplied, terminal form otherwise).
func (m *Manager) snapshotOf(job *Job, scope string, blob []byte) jobSnapshot {
	s := job.Snapshot()
	out := jobSnapshot{
		Spec:      job.Spec,
		Submitted: s.Submitted,
		Started:   s.Started,
		Finished:  s.Finished,
		State:     s.State,
		Attempts:  s.Attempts,
		Error:     s.Error,
		Result:    s.Result,
	}
	if blob != nil {
		out.Checkpoint = &checkpointRecord{Scope: scope, Data: blob}
	}
	return out
}

// persistRetire records a job's final outcome as it leaves the pipeline.
// Drain interruptions (cancelled by shutdown, not by a user) persist the
// non-terminal interrupted pseudo-state so a restart re-queues the job;
// everything else persists terminally and compacts the log down to one
// snapshot record.
func (m *Manager) persistRetire(job *Job) {
	if job.wal == nil {
		return
	}
	state := job.State()
	logger := obs.Logger()
	if state == StateCancelled && !job.wasUserCancelled() && m.baseCtx.Err() != nil {
		m.persistState(job, stateInterrupted, job.Attempts(), "")
		return
	}
	errText := ""
	if err := job.Err(); err != nil {
		errText = err.Error()
	}
	m.persistState(job, state, job.Attempts(), errText)
	if res := job.Result(); res != nil {
		if err := job.wal.Append(recResult, resultRecord{Result: res}); err != nil {
			logger.Warn("service: persist result failed", "job", job.ID, "error", err)
		}
	}
	if err := job.wal.Snapshot(recJob, m.snapshotOf(job, "", nil)); err != nil {
		logger.Warn("service: compact finished job log failed", "job", job.ID, "error", err)
	}
}

// recoveredJob is the fold of one job log's records.
type recoveredJob struct {
	hasSpec   bool
	spec      Spec
	submitted time.Time
	started   time.Time
	finished  time.Time
	state     State
	attempts  int
	errText   string
	result    *Result
	cp        *checkpointRecord
	seq       uint64
}

func foldRecovered(snap *durable.Record, tail []durable.Record) (*recoveredJob, error) {
	r := &recoveredJob{state: StateQueued}
	apply := func(rec durable.Record) error {
		switch rec.Type {
		case recJob:
			var s jobSnapshot
			if err := json.Unmarshal(rec.Data, &s); err != nil {
				return err
			}
			r.hasSpec = true
			r.spec = s.Spec
			r.submitted = s.Submitted
			r.started = s.Started
			r.finished = s.Finished
			r.state = s.State
			r.attempts = s.Attempts
			r.errText = s.Error
			r.result = s.Result
			r.cp = s.Checkpoint
		case recSpec:
			var s specRecord
			if err := json.Unmarshal(rec.Data, &s); err != nil {
				return err
			}
			r.hasSpec = true
			r.spec = s.Spec
			r.submitted = s.Submitted
		case recState:
			var s stateRecord
			if err := json.Unmarshal(rec.Data, &s); err != nil {
				return err
			}
			r.state = s.State
			if s.Attempt > r.attempts {
				r.attempts = s.Attempt
			}
			if s.Error != "" {
				r.errText = s.Error
			}
			switch s.State {
			case StateRunning:
				r.started = s.Time
			case StateDone, StateFailed, StateCancelled:
				r.finished = s.Time
			}
		case recCheckpoint:
			var c checkpointRecord
			if err := json.Unmarshal(rec.Data, &c); err != nil {
				return err
			}
			r.cp = &c
		case recResult:
			var res resultRecord
			if err := json.Unmarshal(rec.Data, &res); err != nil {
				return err
			}
			r.result = res.Result
		default:
			return fmt.Errorf("unknown record type %q", rec.Type)
		}
		return nil
	}
	if snap != nil {
		if err := apply(*snap); err != nil {
			return nil, err
		}
	}
	for _, rec := range tail {
		if err := apply(rec); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// jobSeq parses the numeric suffix of a manager-assigned job ID
// ("job-17" → 17, true).
func jobSeq(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// recover replays the durable store at startup: terminal jobs are restored
// into the result store (respecting retention), interrupted and never-run
// jobs are re-queued — with their latest checkpoint, so explorations
// continue where the dead process stopped — and undecodable logs are
// quarantined aside rather than failing startup. Runs from New before the
// worker pool starts, so no job executes against half-recovered state.
func (m *Manager) recover() {
	logger := obs.Logger()
	ids, err := m.store.List()
	if err != nil {
		logger.Warn("service: durable store unreadable; starting empty", "error", err)
		return
	}
	var terminal []*recoveredJob
	terminalJob := map[*recoveredJob]*Job{}
	var requeue []*Job

	for _, id := range ids {
		if seq, ok := jobSeq(id); ok && seq > m.seq {
			m.seq = seq
		}
		l, err := m.store.Log(id)
		if err != nil {
			logger.Warn("service: skipping undecodable job id", "job", id, "error", err)
			continue
		}
		snap, tail, err := l.Replay()
		if err == nil && snap == nil && len(tail) == 0 {
			// Crash before (or during) the spec append: nothing to recover.
			_ = m.store.Remove(id)
			continue
		}
		var rec *recoveredJob
		if err == nil {
			rec, err = foldRecovered(snap, tail)
		}
		if err == nil && rec.hasSpec {
			err = rec.spec.Validate()
		}
		if err != nil || !rec.hasSpec {
			if err == nil {
				err = fmt.Errorf("log has records but no spec")
			}
			logger.Warn("service: quarantining corrupt job log", "job", id, "error", err)
			if qerr := m.store.Quarantine(id); qerr != nil {
				logger.Warn("service: quarantine failed", "job", id, "error", qerr)
			}
			continue
		}

		job := newJob(id, rec.spec, rec.submitted)
		job.started = rec.started
		if rec.state.Terminal() {
			job.state = rec.state
			job.attempts = rec.attempts
			job.finished = rec.finished
			job.result = rec.result
			if rec.errText != "" {
				job.err = fmt.Errorf("%s", rec.errText)
			}
			close(job.done)
			rec.seq, _ = jobSeq(id)
			terminal = append(terminal, rec)
			terminalJob[rec] = job
			continue
		}
		// Queued, running or interrupted: run it (again). The attempt count
		// starts over in the new process, but the checkpoint carries the
		// exploration forward.
		job.wal = l
		if rec.cp != nil {
			job.setCheckpoint(rec.cp.Scope, rec.cp.Data)
		}
		requeue = append(requeue, job)
	}

	// Terminal jobs re-enter the result store in retirement order (finish
	// time, then sequence) so retention evicts the same jobs it would have
	// without the restart.
	sort.Slice(terminal, func(i, j int) bool {
		if !terminal[i].finished.Equal(terminal[j].finished) {
			return terminal[i].finished.Before(terminal[j].finished)
		}
		return terminal[i].seq < terminal[j].seq
	})
	for _, rec := range terminal {
		job := terminalJob[rec]
		m.jobs[job.ID] = job
		m.finished = append(m.finished, job.ID)
	}
	for len(m.finished) > m.cfg.Retention {
		m.evictFinishedLocked()
	}

	// Interrupted work re-queues in submission order.
	sort.Slice(requeue, func(i, j int) bool {
		si, _ := jobSeq(requeue[i].ID)
		sj, _ := jobSeq(requeue[j].ID)
		return si < sj
	})
	for _, job := range requeue {
		select {
		case m.queue <- job:
			m.jobs[job.ID] = job
			m.persistState(job, StateQueued, 0, "")
			scope, blob := job.resumeState()
			logger.Info("service: re-queued interrupted job",
				"job", job.ID, "kind", job.Spec.Kind,
				"checkpoint", scope, "checkpoint_bytes", len(blob))
		default:
			// More interrupted jobs than queue capacity: fail the overflow
			// durably instead of blocking startup forever.
			job.finish(StateFailed, nil, nil,
				fmt.Errorf("service: recovered job exceeds queue capacity %d", m.cfg.QueueDepth),
				time.Now())
			job.release()
			m.jobs[job.ID] = job
			m.finished = append(m.finished, job.ID)
			job.wal = nil // avoid persisting through a log we will not reuse
			logger.Warn("service: recovered job dropped, queue full", "job", job.ID)
		}
	}
	if len(terminal)+len(requeue) > 0 {
		logger.Info("service: recovered durable state",
			"terminal", len(terminal), "requeued", len(requeue), "next_seq", m.seq+1)
	}
}

// evictFinishedLocked drops the oldest finished job from the result store
// and its durable log. Caller holds m.mu (or is inside single-threaded
// recovery).
func (m *Manager) evictFinishedLocked() {
	id := m.finished[0]
	delete(m.jobs, id)
	m.finished = m.finished[1:]
	if m.store != nil {
		if err := m.store.Remove(id); err != nil {
			obs.Logger().Warn("service: evict job log failed", "job", id, "error", err)
		}
	}
}
