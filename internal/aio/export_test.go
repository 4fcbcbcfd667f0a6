package aio

// PoisonOnPut makes every Arena.Put overwrite the set it takes back (and
// stops doing so when on is false): the use-after-return proof of
// poison_test.go.
func PoisonOnPut(on bool) { poisonPut.Store(on) }
