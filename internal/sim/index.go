package sim

// u32map is a tiny open-addressing hash map from uint32 keys to int32
// values, specialised for the transaction store queue: clearing is O(1)
// (an epoch bump invalidates every entry), probes are allocation-free,
// and the table only grows — never shrinks — so steady-state transactions
// reuse one warm allocation forever.
//
// It exists because TxLoad's read-own-writes forwarding and TxStore's
// line-coalescing check were O(store-queue) linear scans executed on
// every transactional memory operation.
type u32map struct {
	keys  []uint32
	vals  []int32
	epoch []uint32
	cur   uint32 // current epoch; entries with epoch != cur are empty
	mask  uint32
	used  int
}

// u32mapSize is a new map's table size, > 2x the SSE store-queue line
// capacity.
const u32mapSize = 64

func newU32Map() *u32map {
	m := &u32map{
		keys:  make([]uint32, u32mapSize),
		vals:  make([]int32, u32mapSize),
		epoch: make([]uint32, u32mapSize),
	}
	m.init()
	return m
}

// init empties m into a table of u32mapSize entries at epoch 1, reusing
// its arrays: a map that grew keeps the first u32mapSize entries of its
// table.
func (m *u32map) init() {
	*m = u32map{
		keys:  m.keys[:u32mapSize],
		vals:  m.vals[:u32mapSize],
		epoch: m.epoch[:u32mapSize],
		cur:   1,
		mask:  u32mapSize - 1,
	}
	clear(m.keys)
	clear(m.vals)
	clear(m.epoch)
}

// reset empties the map in O(1) by advancing the epoch.
func (m *u32map) reset() {
	m.used = 0
	m.cur++
	if m.cur == 0 { // epoch wrapped: stale entries would look live
		for i := range m.epoch {
			m.epoch[i] = 0
		}
		m.cur = 1
	}
}

func (m *u32map) hash(k uint32) uint32 {
	return (k * 2654435761) & m.mask
}

// get returns the value stored for k in the current epoch.
func (m *u32map) get(k uint32) (int32, bool) {
	for i := m.hash(k); ; i = (i + 1) & m.mask {
		if m.epoch[i] != m.cur {
			return 0, false
		}
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
}

// put inserts or overwrites k's value for the current epoch.
func (m *u32map) put(k uint32, v int32) {
	for i := m.hash(k); ; i = (i + 1) & m.mask {
		if m.epoch[i] != m.cur {
			m.keys[i] = k
			m.vals[i] = v
			m.epoch[i] = m.cur
			m.used++
			if 2*m.used >= len(m.keys) {
				m.grow()
			}
			return
		}
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
	}
}

// grow doubles the table, re-inserting only current-epoch entries.
func (m *u32map) grow() {
	old := *m
	n := 2 * len(old.keys)
	m.keys = make([]uint32, n)
	m.vals = make([]int32, n)
	m.epoch = make([]uint32, n)
	m.mask = uint32(n - 1)
	m.used = 0
	for i, e := range old.epoch {
		if e == old.cur {
			m.put(old.keys[i], old.vals[i])
		}
	}
}
