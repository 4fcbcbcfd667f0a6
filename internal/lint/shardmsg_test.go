package lint

import "testing"

func TestShardmsg(t *testing.T) {
	cases := []struct {
		name string
		pkg  string
		src  string
		want []string
	}{
		{
			name: "flat message allowed",
			pkg:  "internal/shard",
			src: `package shard
type VerdictMsg struct {
	Seq   int64
	Diffs []int64
}
type DoneMsg struct {
	Worker int64
	Died   uint8
}
`,
			want: nil,
		},
		{
			name: "map field flagged",
			pkg:  "internal/shard",
			src: `package shard
type VerdictMsg struct {
	Seq   int64
	Diffs map[int64]int64
}
`,
			want: []string{"4:shardmsg"},
		},
		{
			name: "pointer field flagged",
			pkg:  "internal/shard",
			src: `package shard
type VerdictMsg struct {
	Next *VerdictMsg
}
`,
			want: []string{"3:shardmsg"},
		},
		{
			name: "slice of pointers flagged",
			pkg:  "internal/shard",
			src: `package shard
type DoneMsg struct {
	Peers []*DoneMsg
}
`,
			want: []string{"3:shardmsg"},
		},
		{
			name: "chan and func and interface flagged",
			pkg:  "internal/shard",
			src: `package shard
type CtrlMsg struct {
	Ack  chan struct{}
	Hook func()
	Any  interface{}
}
`,
			want: []string{"3:shardmsg", "4:shardmsg", "5:shardmsg"},
		},
		{
			name: "non-message struct ignored",
			pkg:  "internal/shard",
			src: `package shard
type run struct {
	folds map[int64]int
	gate  *int
}
`,
			want: nil,
		},
		{
			name: "out-of-scope package ignored",
			pkg:  "internal/mpi",
			src: `package mpi
type EnvelopeMsg struct {
	Payload map[string][]byte
}
`,
			want: nil,
		},
		{
			name: "suppression honored",
			pkg:  "internal/shard",
			src: `package shard
type DebugMsg struct {
	//lint:ignore shardmsg in-process diagnostics only, never encoded
	Trace map[string]int64
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectDiags(t, runSource(t, Shardmsg, tc.pkg, tc.src), tc.want...)
		})
	}
}
