// Package wal is the crash-durable job journal behind the service
// plane: an append-only, CRC-framed, hash-chained log of job lifecycle
// events (accepted, started, verdict) that makes reprod survive kill -9
// with exactly-once verdicts and gives every verdict an auditable,
// self-verifying record.
//
// Three disciplines compose:
//
//   - Torn-tail safety (internal/framelog, the frame the CAS index
//     shares): every record is framed with a magic, its own file offset,
//     a length, and a CRC32. A crash mid-append leaves a torn frame that
//     replay skips — recovery never trusts partial bytes. Because pfs has
//     no truncate, a torn region is left in place as a hole and the next
//     append continues after it; the stored-offset field is what lets
//     replay resynchronize on the next genuine frame. This package keeps
//     what is the journal's own: the payload codec, the hash chain and
//     wedge-on-error.
//
//   - Hash chaining ("Self-Verifying Measurement Records"): each
//     record's payload embeds the Murmur3 digest of the previous
//     record's payload, so the journal is a tamper-evident chain. A
//     crash hole is distinguishable from tampering: a hole is skipped
//     bytes whose successor still chains from the last valid record,
//     while a flipped byte in a record that has a successor breaks the
//     successor's Prev linkage and replay fails with ErrTampered. (A
//     flip in the final record is indistinguishable from a torn tail —
//     the record is dropped, visibly, as TornTailBytes; see DESIGN §16
//     for this blind spot.)
//
//   - Exactly-once verdicts: durability is part of acceptance. The
//     accepted record is appended before a submission returns, and the
//     verdict record is appended before the verdict becomes visible,
//     so replay can classify every accepted job as completed (serve the
//     ledger verdict, never recompute) or unfinished (re-admit and
//     re-run). After any append error the journal wedges — every later
//     append fails — so the in-memory chain never diverges from disk
//     within one process life.
//
// Records are only constructed through Journal.Append, which assigns
// Seq, Prev, and Digest and refuses a record that arrives with any of
// them set.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/framelog"
	"repro/internal/murmur3"
)

// DefaultName is the store-relative journal path reprod uses when the
// -journal flag is given without a custom name.
const DefaultName = "wal/journal.log"

// ToolVersion is the journal writer's version string, bound into every
// record so an auditor knows which code produced a verdict.
const ToolVersion = "repro-wal/1"

// Type is a record's lifecycle event.
type Type uint8

// Record types, in lifecycle order.
const (
	// TypeAccepted: the job passed admission; its spec is bound. The
	// record is durable before the submission returns, so a job the
	// client saw accepted is never lost.
	TypeAccepted Type = 1
	// TypeStarted: the job acquired an execution slot.
	TypeStarted Type = 2
	// TypeVerdict: the job's outcome, durable before it is published.
	TypeVerdict Type = 3
)

// String returns the type's wire name.
func (t Type) String() string {
	switch t {
	case TypeAccepted:
		return "accepted"
	case TypeStarted:
		return "started"
	case TypeVerdict:
		return "verdict"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Record is one journal entry. Seq, Prev, and Digest are the chain
// coordinates and are assigned by Journal.Append (Append rejects a
// record arriving with any of them set); every other field is the
// caller's event payload. One Record type serves all three events —
// verdict-only fields are zero on accepted/started records.
type Record struct {
	// Seq is the record's 1-based position in the chain.
	Seq uint64 `json:"seq"`
	// Prev is the Murmur3 digest of the previous record's payload
	// (zero for the genesis record).
	Prev murmur3.Digest `json:"prev"`
	// Digest is the Murmur3 digest of this record's payload — the
	// value the next record's Prev must equal. Derived, not encoded.
	Digest murmur3.Digest `json:"digest"`

	// Type is the lifecycle event.
	Type Type `json:"type"`
	// Job is the plane-unique job ID the event belongs to.
	Job uint64 `json:"job"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// Kind is the job kind ("compare" | "group" | "shard").
	Kind string `json:"kind"`
	// Names lists the run snapshots the job binds: [A, B] for
	// compare/shard, [baseline, runs...] for group.
	Names []string `json:"names"`
	// Topology is the group pair coverage ("star" | "all-pairs"),
	// empty for pair jobs.
	Topology string `json:"topology,omitempty"`
	// Workers is the shard fleet size, 0 otherwise.
	Workers int `json:"workers,omitempty"`
	// Degrade records whether the degradation ladder was enabled.
	Degrade bool `json:"degrade,omitempty"`
	// Epsilon is the normalized error bound ε the job compares at.
	Epsilon float64 `json:"epsilon"`
	// ChunkSize is the normalized hashing granularity in bytes.
	ChunkSize int `json:"chunkSize"`
	// ToolVersion identifies the writer.
	ToolVersion string `json:"toolVersion"`

	// Verdict-record fields (zero otherwise).

	// Exit is the verdict on the reprocmp 0/2/3/1 exit-code contract.
	Exit int `json:"exit"`
	// DiffCount is the total out-of-bound element count (-1 means
	// "diverged, count unknown").
	DiffCount int64 `json:"diffCount"`
	// Degraded, UnverifiedChunks, ReadRetries, RingFallbacks, and
	// CASPruned carry the degradation ladder's evidence, so an auditor
	// can see why a verdict was inconclusive.
	Degraded         bool `json:"degraded,omitempty"`
	UnverifiedChunks int  `json:"unverifiedChunks,omitempty"`
	ReadRetries      int  `json:"readRetries,omitempty"`
	RingFallbacks    int  `json:"ringFallbacks,omitempty"`
	CASPruned        int  `json:"casPruned,omitempty"`
	// ErrMsg is the failure text of an error verdict.
	ErrMsg string `json:"errMsg,omitempty"`
	// Roots holds the run snapshots' combined Merkle roots, aligned
	// with Names (zero digests when the job failed before loading
	// metadata). Binding the roots into the chained record is what lets
	// verify-log recompute a historical verdict's inputs.
	Roots []murmur3.Digest `json:"roots,omitempty"`
}

// frameMagic is the journal's frame magic, "JWAL" little-endian. The
// frame itself — layout, append bound, resync — is internal/framelog's.
const frameMagic uint32 = 0x4c41574a

// recVersion is the payload encoding version.
const recVersion = 1

// appendString writes a u32 length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// encodePayload serializes everything but the derived Digest.
func encodePayload(r *Record) []byte {
	b := make([]byte, 0, 192)
	b = append(b, recVersion, byte(r.Type))
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	b = append(b, r.Prev[:]...)
	b = binary.LittleEndian.AppendUint64(b, r.Job)
	b = appendString(b, r.Tenant)
	b = appendString(b, r.Kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Names)))
	for _, n := range r.Names {
		b = appendString(b, n)
	}
	b = appendString(b, r.Topology)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Workers))
	b = append(b, boolByte(r.Degrade))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Epsilon))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.ChunkSize))
	b = appendString(b, r.ToolVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Exit)))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.DiffCount))
	b = append(b, boolByte(r.Degraded))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.UnverifiedChunks))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.ReadRetries))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.RingFallbacks))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.CASPruned))
	b = appendString(b, r.ErrMsg)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Roots)))
	for _, d := range r.Roots {
		b = append(b, d[:]...)
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decodePayload parses one payload and derives its Digest.
func decodePayload(payload []byte) (Record, error) {
	p := framelog.NewCursor(payload)
	if v := p.U8(); v != recVersion {
		return Record{}, fmt.Errorf("record version %d", v)
	}
	var r Record
	r.Type = Type(p.U8())
	r.Seq = p.U64()
	r.Prev = p.Digest()
	r.Job = p.U64()
	r.Tenant = p.Str32()
	r.Kind = p.Str32()
	// A count sizes nothing: the loops stop at the first short read.
	for i, n := uint32(0), p.U32(); i < n && p.Err() == nil; i++ {
		r.Names = append(r.Names, p.Str32())
	}
	r.Topology = p.Str32()
	r.Workers = int(int32(p.U32()))
	degrade := p.U8()
	r.Epsilon = math.Float64frombits(p.U64())
	r.ChunkSize = int(int32(p.U32()))
	r.ToolVersion = p.Str32()
	r.Exit = int(int32(p.U32()))
	r.DiffCount = int64(p.U64())
	degraded := p.U8()
	r.UnverifiedChunks = int(int32(p.U32()))
	r.ReadRetries = int(int32(p.U32()))
	r.RingFallbacks = int(int32(p.U32()))
	r.CASPruned = int(int32(p.U32()))
	r.ErrMsg = p.Str32()
	for i, n := uint32(0), p.U32(); i < n && p.Err() == nil; i++ {
		r.Roots = append(r.Roots, p.Digest())
	}
	if err := p.Done(); err != nil {
		return Record{}, err
	}
	// The writer's flag bytes are 0 and 1. Anything else would decode to a
	// record that encodes to other bytes, and so to another chain digest.
	if degrade > 1 || degraded > 1 {
		return Record{}, fmt.Errorf("record flag bytes %d, %d", degrade, degraded)
	}
	r.Degrade, r.Degraded = degrade == 1, degraded == 1
	r.Digest = payloadDigest(payload)
	return r, nil
}

// payloadDigest is the chain digest of one payload.
func payloadDigest(payload []byte) murmur3.Digest {
	return murmur3.SumDigest(payload, murmur3.Digest{})
}
