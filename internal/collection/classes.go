package collection

import (
	"tdb/internal/objectstore"
)

// Persistent class ids reserved by the collection store. Application class
// ids must avoid this range.
const (
	classCatalog     objectstore.ClassID = 0xC0000001
	classCollection  objectstore.ClassID = 0xC0000002
	classBTreeNode   objectstore.ClassID = 0xC0000003
	classHashDir     objectstore.ClassID = 0xC0000004
	classHashSegment objectstore.ClassID = 0xC0000005
	classHashBucket  objectstore.ClassID = 0xC0000006
	classListNode    objectstore.ClassID = 0xC0000007
)

// RegisterClasses registers the collection store's persistent classes with
// a registry. It must be called on every registry used with a database that
// contains collections; calling it twice (e.g., reusing one registry across
// database opens) is a no-op.
func RegisterClasses(reg *objectstore.Registry) {
	if reg.Has(classCatalog) {
		return
	}
	reg.Register(classCatalog, func() objectstore.Object { return &catalogObject{} })
	reg.Register(classCollection, func() objectstore.Object { return &collectionObject{} })
	reg.Register(classBTreeNode, func() objectstore.Object { return &btreeNode{} })
	reg.Register(classHashDir, func() objectstore.Object { return &hashDir{} })
	reg.Register(classHashSegment, func() objectstore.Object { return &hashSegment{} })
	reg.Register(classHashBucket, func() objectstore.Object { return &hashBucket{} })
	reg.Register(classListNode, func() objectstore.Object { return &listNode{} })
}

// catalogObject maps collection names to collection object ids; it is the
// database root object when the collection store manages the database.
type catalogObject struct {
	Names []string
	OIDs  []objectstore.ObjectID
}

func (c *catalogObject) ClassID() objectstore.ClassID { return classCatalog }

func (c *catalogObject) Pickle(p *objectstore.Pickler) {
	p.Uint32(uint32(len(c.Names)))
	for i := range c.Names {
		p.String(c.Names[i])
		p.ObjectID(c.OIDs[i])
	}
}

func (c *catalogObject) Unpickle(u *objectstore.Unpickler) error {
	n := int(u.Uint32())
	c.Names = nil
	c.OIDs = nil
	for i := 0; i < n; i++ {
		c.Names = append(c.Names, u.String())
		c.OIDs = append(c.OIDs, u.ObjectID())
		if err := u.Err(); err != nil {
			return err
		}
	}
	return u.Err()
}

// find returns the collection oid for a name.
func (c *catalogObject) find(name string) (objectstore.ObjectID, bool) {
	for i, n := range c.Names {
		if n == name {
			return c.OIDs[i], true
		}
	}
	return objectstore.NilObject, false
}

// put adds or replaces a mapping.
func (c *catalogObject) put(name string, oid objectstore.ObjectID) {
	for i, n := range c.Names {
		if n == name {
			c.OIDs[i] = oid
			return
		}
	}
	c.Names = append(c.Names, name)
	c.OIDs = append(c.OIDs, oid)
}

// remove drops a mapping.
func (c *catalogObject) remove(name string) {
	for i, n := range c.Names {
		if n == name {
			c.Names = append(c.Names[:i], c.Names[i+1:]...)
			c.OIDs = append(c.OIDs[:i], c.OIDs[i+1:]...)
			return
		}
	}
}

// indexDesc is the persistent description of one index on a collection.
type indexDesc struct {
	Name   string
	Unique bool
	Kind   IndexKind
	// Root is the index structure's root object.
	Root objectstore.ObjectID
}

// collectionObject is the persistent state of a collection (paper §5.2.1:
// "each Collection object maintains a list of Indexer objects"; the
// extractor functions themselves live in code and are re-supplied by the
// application at run time — only the structural description persists).
type collectionObject struct {
	Name    string
	Indexes []indexDesc
	// Size counts objects in the collection.
	Size int64
}

func (c *collectionObject) ClassID() objectstore.ClassID { return classCollection }

func (c *collectionObject) Pickle(p *objectstore.Pickler) {
	p.String(c.Name)
	p.Int64(c.Size)
	p.Uint32(uint32(len(c.Indexes)))
	for _, ix := range c.Indexes {
		p.String(ix.Name)
		p.Bool(ix.Unique)
		p.Byte(byte(ix.Kind))
		p.ObjectID(ix.Root)
	}
}

func (c *collectionObject) Unpickle(u *objectstore.Unpickler) error {
	c.Name = u.String()
	c.Size = u.Int64()
	n := int(u.Uint32())
	c.Indexes = nil
	for i := 0; i < n; i++ {
		var ix indexDesc
		ix.Name = u.String()
		ix.Unique = u.Bool()
		ix.Kind = IndexKind(u.Byte())
		ix.Root = u.ObjectID()
		c.Indexes = append(c.Indexes, ix)
		if err := u.Err(); err != nil {
			return err
		}
	}
	return u.Err()
}

// findIndex locates an index descriptor by name.
func (c *collectionObject) findIndex(name string) (int, bool) {
	for i := range c.Indexes {
		if c.Indexes[i].Name == name {
			return i, true
		}
	}
	return -1, false
}

// pickleEntries and unpickleEntries serialize (encoded key, oid) entry
// slices shared by the index node classes.
type keyOID struct {
	key []byte
	oid objectstore.ObjectID
}

func pickleEntries(p *objectstore.Pickler, entries []keyOID) {
	p.Uint32(uint32(len(entries)))
	for _, e := range entries {
		p.BytesVal(e.key)
		p.ObjectID(e.oid)
	}
}

// unpickleEntries pre-sizes its slice only to what the remaining bytes can
// hold: an entry takes at least 12 (a key length and an oid), and the count
// is untrusted.
func unpickleEntries(u *objectstore.Unpickler) []keyOID {
	n := int(u.Uint32())
	if u.Err() != nil {
		return nil
	}
	out := make([]keyOID, 0, min(n, u.Remaining()/12))
	for i := 0; i < n; i++ {
		e := keyOID{key: u.BytesVal(), oid: u.ObjectID()}
		if u.Err() != nil {
			return nil
		}
		out = append(out, e)
	}
	return out
}
