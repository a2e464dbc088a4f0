package codec

// Memo sizes. They are constants, not options: a connection's frames repeat
// a handful of short strings (method names, the object type names of replica
// records, provider addresses on other sites), which 64 slots hold with room
// to spare.
const (
	memoSets   = 16
	memoWays   = 4
	memoMaxLen = 64 // longer strings are copied every time and not kept
)

// Memo hands a decoder back the strings it has decoded before, so a string
// that repeats on every frame of a connection is allocated once per
// connection instead of once per frame. A string it returns is the memo's
// own copy, never a window on the input. It keeps at most memoSets*memoWays
// strings of at most memoMaxLen bytes: a set of memoWays slots per hash,
// overwritten in turn when full, which forgets without allocating. The zero
// value is ready to use. A Memo is not safe for concurrent use: it belongs
// to one reader (Decoder.WithMemo).
type Memo struct {
	sets [memoSets][memoWays]string
	hash [memoSets][memoWays]uint32 // each slot's hash: most misses compare no bytes
	next [memoSets]uint8            // the way the set's next miss overwrites
}

// string returns b as a string: the memo's copy if it holds one, else a new
// copy, kept if it is short. A nil memo always copies.
func (m *Memo) string(b []byte) string {
	if m == nil || len(b) > memoMaxLen {
		return string(b)
	}
	h := fnv1a(b)
	i := h % memoSets
	for w, s := range &m.sets[i] {
		if m.hash[i][w] == h && s == string(b) {
			return s
		}
	}
	s, w := string(b), m.next[i]
	m.sets[i][w], m.hash[i][w] = s, h
	m.next[i] = (w + 1) % memoWays
	return s
}
