"""``only_tested`` and ``unused`` are named in this docstring, which
reaches nothing."""


def used():
    return Record()


def only_tested():
    return 1


def unused():
    return 2


class Record:
    def __repr__(self):
        return "Record()"

    def orphan(self):
        return 3
