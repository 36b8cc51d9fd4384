package mapcache

// node is an AVL tree node keyed by Orig.
type node struct {
	m           Mapping
	left, right *node
	height      int8
}

// Lookup returns the mapping for orig.
func (t *Table) Lookup(orig int64) (Mapping, bool) {
	n := t.root
	for n != nil {
		switch {
		case orig < n.m.Orig:
			n = n.left
		case orig > n.m.Orig:
			n = n.right
		default:
			return n.m, true
		}
	}
	return Mapping{}, false
}

// LookupRun inspects the run starting at orig in a single descent.
//
// If orig is mapped it returns its mapping, ok=true, and n = the length
// (capped at max) of the contiguous run of mappings starting at orig
// whose Orig AND Cache addresses both advance by one per entry — the
// extent a redirector can serve with one cache-partition I/O.
//
// If orig is unmapped it returns ok=false and n = the number of
// consecutive unmapped addresses starting at orig (capped at max), i.e.
// the gap to the next mapping.
//
// The run is discovered by walking in-order successors from the
// initial descent's search path, so a whole extent costs one O(log k)
// descent plus O(n) amortized pointer chasing instead of n descents.
func (t *Table) LookupRun(orig, max int64) (m Mapping, n int64, ok bool) {
	if max <= 0 {
		return Mapping{}, 0, false
	}
	// Descend to orig, stacking the pending in-order successors (the
	// nodes where the search went left).
	var buf [48]*node // fits the AVL height of ~2^33 entries
	stack := buf[:0]
	cur := t.root
	for cur != nil {
		switch {
		case orig < cur.m.Orig:
			stack = append(stack, cur)
			cur = cur.left
		case orig > cur.m.Orig:
			cur = cur.right
		default:
			goto found
		}
	}
	// orig is unmapped; the successor (if any) bounds the gap.
	if len(stack) == 0 {
		return Mapping{}, max, false
	}
	if gap := stack[len(stack)-1].m.Orig - orig; gap < max {
		return Mapping{}, gap, false
	}
	return Mapping{}, max, false

found:
	m = cur.m
	n = 1
	prev := cur.m
	for n < max {
		// Advance to the in-order successor: leftmost of the right
		// subtree, else the nearest stacked ancestor.
		next := cur.right
		for next != nil {
			stack = append(stack, next)
			next = next.left
		}
		if len(stack) == 0 {
			break
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.m.Orig != prev.Orig+1 || cur.m.Cache != prev.Cache+1 {
			break
		}
		prev = cur.m
		n++
	}
	return m, n, true
}

// SetDirty updates the dirty flag for orig, reporting whether the entry
// exists. Transitions are logged so dirty blocks are recoverable.
func (t *Table) SetDirty(orig int64, dirty bool) bool {
	n := t.root
	for n != nil {
		switch {
		case orig < n.m.Orig:
			n = n.left
		case orig > n.m.Orig:
			n = n.right
		default:
			if n.m.Dirty != dirty {
				n.m.Dirty = dirty
				if dirty {
					t.dirty.add(orig)
					t.appendLog(logInsert, n.m)
				} else {
					t.dirty.del(orig)
					t.appendLog(logClean, Mapping{Orig: orig})
				}
			}
			return true
		}
	}
	return false
}

// SetDirtyRun updates the dirty flag of every existing mapping in
// [orig, orig+n) — equivalent to a loop of SetDirty — using one descent
// plus successor walking. It returns how many mappings were found.
// Transitions are logged so dirty blocks stay recoverable.
func (t *Table) SetDirtyRun(orig, n int64, dirty bool) int64 {
	if n <= 0 {
		return 0
	}
	end := orig + n
	var buf [48]*node
	stack := buf[:0]
	cur := t.root
	for cur != nil {
		switch {
		case orig < cur.m.Orig:
			stack = append(stack, cur)
			cur = cur.left
		case orig > cur.m.Orig:
			cur = cur.right
		default:
			stack = append(stack, cur)
			cur = nil
		}
	}
	var found int64
	for len(stack) > 0 {
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.m.Orig >= end {
			break
		}
		found++
		if cur.m.Dirty != dirty {
			cur.m.Dirty = dirty
			if dirty {
				t.dirty.add(cur.m.Orig)
				t.appendLog(logInsert, cur.m)
			} else {
				t.dirty.del(cur.m.Orig)
				t.appendLog(logClean, Mapping{Orig: cur.m.Orig})
			}
		}
		for next := cur.right; next != nil; next = next.left {
			stack = append(stack, next)
		}
	}
	return found
}

// RemoveRun deletes every mapping in [orig, orig+n), returning how many
// existed — equivalent to a loop of Remove over the range, but existing
// keys are discovered by successor walking so sparse ranges don't pay a
// descent per absent address.
func (t *Table) RemoveRun(orig, n int64) int64 {
	if n <= 0 {
		return 0
	}
	end := orig + n
	var removed int64
	for orig < end {
		// Collect the next batch of present keys (removal rebalances
		// the tree, invalidating any in-flight iterator).
		var keys [64]int64
		got := 0
		var buf [48]*node
		stack := buf[:0]
		cur := t.root
		for cur != nil {
			switch {
			case orig < cur.m.Orig:
				stack = append(stack, cur)
				cur = cur.left
			case orig > cur.m.Orig:
				cur = cur.right
			default:
				stack = append(stack, cur)
				cur = nil
			}
		}
		for len(stack) > 0 && got < len(keys) {
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur.m.Orig >= end {
				break
			}
			keys[got] = cur.m.Orig
			got++
			for next := cur.right; next != nil; next = next.left {
				stack = append(stack, next)
			}
		}
		if got == 0 {
			break
		}
		for _, k := range keys[:got] {
			var ok bool
			t.root, ok = t.remove(t.root, k)
			if ok {
				t.size--
				removed++
				t.dirty.del(k)
				t.appendLog(logRemove, Mapping{Orig: k})
			}
		}
		orig = keys[got-1] + 1
	}
	return removed
}

// Walk visits all mappings in ascending Orig order. Returning false
// from fn stops the walk.
func (t *Table) Walk(fn func(Mapping) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		return walk(n.left) && fn(n.m) && walk(n.right)
	}
	walk(t.root)
}

// --- AVL machinery ---

func height(n *node) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *node) *node {
	n.height = 1 + max8(height(n.left), height(n.right))
	bf := height(n.left) - height(n.right)
	switch {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.height = 1 + max8(height(n.left), height(n.right))
	l.height = 1 + max8(height(l.left), height(l.right))
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.height = 1 + max8(height(n.left), height(n.right))
	r.height = 1 + max8(height(r.left), height(r.right))
	return r
}

func max8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

// newNode takes a node from the freelist, or allocates.
func (t *Table) newNode(m Mapping) *node {
	if f := t.free; f != nil {
		t.free = f.right
		f.m, f.left, f.right, f.height = m, nil, nil, 1
		return f
	}
	return &node{m: m, height: 1}
}

// freeNode returns a detached node to the freelist.
func (t *Table) freeNode(n *node) {
	n.left, n.right = nil, t.free
	t.free = n
}

func (t *Table) insert(n *node, m Mapping) *node {
	if n == nil {
		t.size++
		return t.newNode(m)
	}
	switch {
	case m.Orig < n.m.Orig:
		n.left = t.insert(n.left, m)
	case m.Orig > n.m.Orig:
		n.right = t.insert(n.right, m)
	default:
		t.replaced, t.existed = n.m, true
		n.m = m // replace in place
		return n
	}
	return fix(n)
}

func (t *Table) remove(n *node, orig int64) (*node, bool) {
	if n == nil {
		return nil, false
	}
	var removed bool
	switch {
	case orig < n.m.Orig:
		n.left, removed = t.remove(n.left, orig)
	case orig > n.m.Orig:
		n.right, removed = t.remove(n.right, orig)
	default:
		removed = true
		if n.left == nil {
			r := n.right
			t.freeNode(n)
			return r, true
		}
		if n.right == nil {
			l := n.left
			t.freeNode(n)
			return l, true
		}
		// Replace with the in-order successor.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.m = succ.m
		n.right, _ = t.remove(n.right, succ.m.Orig)
	}
	return fix(n), removed
}
