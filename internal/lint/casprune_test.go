package lint

import "testing"

func TestCasprune(t *testing.T) {
	cases := []struct {
		name string
		pkg  string
		src  string
		want []string
	}{
		{
			name: "string-converted prefix stays conservative",
			pkg:  "internal/compare",
			src: `package compare
func prune(dig, other []byte) bool {
	return string(dig[:8]) == string(other[:8])
}
`,
			want: nil, // the conversion hides the slice; the rule is syntactic
		},
		{
			name: "raw digest prefix equality flagged",
			pkg:  "internal/cas",
			src: `package cas
func prune(digA, digB string) bool {
	return digA[:8] == digB[:8]
}
`,
			want: []string{"3:casprune"},
		},
		{
			name: "prefix inequality flagged",
			pkg:  "internal/merkle",
			src: `package merkle
func changed(leafHex, oldHex string) bool {
	return leafHex[:4] != oldHex
}
`,
			want: []string{"3:casprune"},
		},
		{
			name: "bytes.Equal on truncated digest flagged",
			pkg:  "internal/compare",
			src: `package compare
import "bytes"
func dedup(digest, stored []byte) bool {
	return bytes.Equal(digest[:4], stored[:4])
}
`,
			want: []string{"4:casprune"},
		},
		{
			name: "bytes.HasPrefix on digest flagged",
			pkg:  "internal/stream",
			src: `package stream
import "bytes"
func match(leafHash, probe []byte) bool {
	return bytes.HasPrefix(leafHash, probe)
}
`,
			want: []string{"4:casprune"},
		},
		{
			name: "strings.HasPrefix on hash flagged",
			pkg:  "internal/compare",
			src: `package compare
import "strings"
func find(hashHex string) bool {
	return strings.HasPrefix(hashHex, "ab")
}
`,
			want: []string{"4:casprune"},
		},
		{
			name: "full digest equality allowed",
			pkg:  "internal/cas",
			src: `package cas
func hit(digA, digB [16]byte) bool {
	return digA == digB
}
`,
			want: nil,
		},
		{
			name: "full-width slice copy allowed",
			pkg:  "internal/cas",
			src: `package cas
import "bytes"
func same(dig, stored []byte) bool {
	return bytes.Equal(dig[:], stored[:])
}
`,
			want: nil,
		},
		{
			name: "non-digest slicing allowed",
			pkg:  "internal/compare",
			src: `package compare
func head(name, want string) bool {
	return name[:3] == want
}
`,
			want: nil,
		},
		{
			name: "suppression honored",
			pkg:  "internal/cas",
			src: `package cas
func bucket(dig string) bool {
	//lint:ignore casprune sharding key, not a prune decision
	return dig[:2] == "00"
}
`,
			want: nil,
		},
		{
			name: "out-of-scope package ignored",
			pkg:  "internal/ckpt", // containers only: no digest is held or consumed there
			src: `package ckpt
import "strings"
func rev(hash string) bool {
	return strings.HasPrefix(hash, "v1-") && hash[:4] == "v1-0"
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectDiags(t, runSource(t, Casprune, tc.pkg, tc.src), tc.want...)
		})
	}
}
