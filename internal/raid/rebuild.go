package raid

// MemberSizer is implemented by layouts that know how much of each
// member disk they occupy (used to bound a rebuild sweep).
type MemberSizer interface {
	// MemberExtent reports the per-member used extent in sectors.
	MemberExtent() int64
}

// MemberExtent implements MemberSizer for RAID-0.
func (r0 *RAID0) MemberExtent() int64 { return r0.stripesPerM * r0.stripeUnit }

// MemberExtent implements MemberSizer for RAID-1.
func (r1 *RAID1) MemberExtent() int64 { return r1.memberCap }

// MemberExtent implements MemberSizer for RAID-5.
func (r5 *RAID5) MemberExtent() int64 { return r5.rows * r5.stripeUnit }
