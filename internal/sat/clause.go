package sat

import "math"

// The clause database is a single flat arena of int32 words (struct of
// arrays in the MiniSat/CaDiCaL tradition): every clause is a fixed
// 2-word header — size+flags, activity — followed by its literals, and a
// clause reference (cref) is the arena offset of its header. The
// layout removes the two heap objects the previous representation paid
// per clause (the struct and its literal slice), keeps propagation
// walking contiguous memory, and leaves the garbage collector nothing to
// scan: the arena is one pointer-free allocation.
//
// Deletion is a header flag; the dead words are reclaimed by
// garbageCollect (solver.go), which compacts live clauses into a fresh
// arena and remaps every outstanding cref through a forwarding address
// written into the moved clause's activity word.

// cref references a clause by its arena offset. crefUndef is the "no
// clause" sentinel used for decisions and level-0 facts.
type cref int32

const crefUndef cref = -1

const (
	claHdrWords = 2 // size+flags word, activity word

	claFlagLearnt  = 1
	claFlagDeleted = 2
	claFlagReloced = 4
	claFlagBits    = 3 // size is stored shifted past the flags
)

// clauseDB is the arena. The zero value is an empty database.
type clauseDB struct {
	data   []Lit // headers and literals interleaved; Lit is int32
	wasted int   // words held by deleted clauses
}

// alloc appends a clause and returns its reference. The literals are
// copied; the header starts with activity 0.
func (db *clauseDB) alloc(lits []Lit, learnt bool) cref {
	c := cref(len(db.data))
	flags := 0
	if learnt {
		flags = claFlagLearnt
	}
	db.data = append(db.data, Lit(len(lits)<<claFlagBits|flags), 0)
	db.data = append(db.data, lits...)
	return c
}

func (db *clauseDB) size(c cref) int    { return int(db.data[c]) >> claFlagBits }
func (db *clauseDB) learnt(c cref) bool { return db.data[c]&claFlagLearnt != 0 }
func (db *clauseDB) deleted(c cref) bool {
	return db.data[c]&claFlagDeleted != 0
}

// lits returns the clause's literal block as a capacity-clamped view into
// the arena. The view is invalidated by alloc (append may move the
// backing array) and by garbageCollect.
func (db *clauseDB) lits(c cref) []Lit {
	n := int(db.data[c]) >> claFlagBits
	lo := int(c) + claHdrWords
	return db.data[lo : lo+n : lo+n]
}

// delete flags the clause dead and accounts its words as wasted. Watch
// lists purge dead references lazily; garbageCollect reclaims the words.
func (db *clauseDB) delete(c cref) {
	if db.data[c]&claFlagDeleted != 0 {
		return
	}
	db.data[c] |= claFlagDeleted
	db.wasted += claHdrWords + db.size(c)
}

func (db *clauseDB) act(c cref) float32 {
	return math.Float32frombits(uint32(db.data[c+1]))
}
func (db *clauseDB) setAct(c cref, a float32) {
	db.data[c+1] = Lit(math.Float32bits(a))
}

// reloced/relocTarget read the forwarding address garbageCollect leaves
// in a moved clause's header (the activity word is reused for the
// target, so the activity must be copied out before setReloced).
func (db *clauseDB) reloced(c cref) bool     { return db.data[c]&claFlagReloced != 0 }
func (db *clauseDB) relocTarget(c cref) cref { return cref(db.data[c+1]) }

// setReloced marks c moved to target, clobbering the old header.
func (db *clauseDB) setReloced(c, target cref) {
	db.data[c] |= claFlagReloced
	db.data[c+1] = Lit(target)
}

// bytes reports the arena's current backing size.
func (db *clauseDB) bytes() int64 { return int64(cap(db.data)) * 4 }

// watcher pairs a watching clause with a "blocker" literal: if the
// blocker is already true the clause is satisfied and need not be
// touched, sparing the cache miss on the clause itself. The pair is
// packed into one 64-bit word — cref in the high half, blocker literal
// in the low half — so a watch-list scan is a single-word load per entry
// and watch lists are pointer-free flat memory.
type watcher uint64

func mkWatcher(c cref, blocker Lit) watcher {
	return watcher(uint64(uint32(c))<<32 | uint64(uint32(blocker)))
}

func (w watcher) clause() cref { return cref(int32(uint32(w >> 32))) }
func (w watcher) blocker() Lit { return Lit(int32(uint32(w))) }
