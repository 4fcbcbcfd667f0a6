package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// payloadSeeds is one record of each Type, with and without the optional
// fields, in the chain coordinates Append would have given them.
func payloadSeeds() []Record {
	recs := append(jobRecords(1, 0), jobRecords(2, 3)...)
	group := Record{Type: TypeVerdict, Job: 3, Tenant: "", Kind: "group",
		Names: []string{"base", "r1", "r2", ""}, Topology: "all-pairs", Workers: 4, Degrade: true,
		Epsilon: 1e-5, ChunkSize: 4 << 10, ToolVersion: ToolVersion,
		Exit: 1, DiffCount: -1, Degraded: true, UnverifiedChunks: 2, ReadRetries: 5, RingFallbacks: 1, CASPruned: 9,
		ErrMsg: "open runB: no such checkpoint"}
	recs = append(recs, group, Record{Type: TypeStarted})
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
		if i > 0 {
			recs[i].Prev = payloadDigest(encodePayload(&recs[i-1]))
		}
	}
	return recs
}

// FuzzDecodePayload holds the record codec, on its own, to the contract of
// the other decoders: arbitrary bytes never panic and size nothing the
// bytes do not back; a payload that decodes is exactly the encoding of what
// it decoded to — the chain digest is over the bytes, so two payloads for
// one record would be two digests for it; and what encodePayload writes
// decodes to the record it was given. The checked-in corpus holds the seeds
// below, cut short inside a string, the name list and the roots, and the
// refusals (a future version, a count the bytes do not back, a flag byte of
// 2, a trailing byte).
func FuzzDecodePayload(f *testing.F) {
	for _, r := range payloadSeeds() {
		payload := encodePayload(&r)
		got, err := decodePayload(payload)
		if err != nil {
			f.Fatalf("%v record does not decode: %v", r.Type, err)
		}
		r.Digest = payloadDigest(payload)
		if !reflect.DeepEqual(got, r) {
			f.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodePayload(payload)
		if err != nil {
			if !reflect.DeepEqual(r, Record{}) {
				t.Fatal("a record came back with an error")
			}
			return
		}
		// A name costs at least its length prefix, a root its 16 bytes.
		if 4*len(r.Names)+16*len(r.Roots) > len(payload) {
			t.Fatalf("%d names and %d roots decoded from %d bytes", len(r.Names), len(r.Roots), len(payload))
		}
		if again := encodePayload(&r); !bytes.Equal(again, payload) {
			t.Fatalf("decoded record encodes to other bytes:\n got %x\nwant %x", again, payload)
		}
		if r.Digest != payloadDigest(payload) {
			t.Fatal("Digest is not the payload's")
		}
	})
}
