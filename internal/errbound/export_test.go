package errbound

// What ab_test.go needs of the oracle and the benchmark inputs. It is an
// external test package because it imports internal/hacc, which imports
// this package.
var (
	ReferenceCompareSlices = referenceCompareSlices
	ReferenceAllClose      = referenceAllClose
	BenchPair              = benchPair
	BenchRegimes           = benchRegimes
)

const BenchEps = benchEps
