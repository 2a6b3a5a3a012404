package sched

// drrQueue and eiffelQueue claim a standalone scheduler's lowest unused
// flow slot above its owned count at weight w: a scheduler without a
// flow table numbers its flows itself, all at generation 0.
func drrQueue(d *DRR, w float64) *DRRQueue {
	for slot := uint32(d.slab.Owned()); ; slot++ {
		if q, fresh := d.Queue(slot, 0); fresh {
			d.SetWeight(q, w)
			return q
		}
	}
}

func eiffelQueue(e *Eiffel, w float64) *EiffelQueue {
	for slot := uint32(e.slab.Owned()); ; slot++ {
		if q, fresh := e.Queue(slot, 0); fresh {
			e.SetWeight(q, w)
			return q
		}
	}
}
