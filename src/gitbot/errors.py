"""Exception types raised across the package."""


class GitbotError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(GitbotError):
    """A command-line option's value does not fit the model in use."""


class NotAGitRepository(GitbotError):
    """The path exists but git does not recognise it as a repository."""


class GitUnavailable(GitbotError):
    """The git executable could not be found on PATH."""


class ExtractionFailed(GitbotError):
    """git exited with a nonzero status while extracting commits."""


class MalformedMapping(GitbotError):
    """An identity mapping row does not have exactly two fields."""


class DuplicateName(GitbotError):
    """A name is mapped twice to different identities."""


class MalformedDataset(GitbotError):
    """A dataset row has the wrong arity or an unknown label token."""


class SingleClassData(GitbotError):
    """Training or splitting requires both classes to be present."""


class UnreadableModel(GitbotError):
    """A model file is corrupt or has an unsupported format version."""


class EmptyInput(GitbotError):
    """An operation that needs at least one element received none."""
